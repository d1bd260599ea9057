"""PART-style rule extraction: repeatedly build a partial pruned tree on the
instances not yet covered, turn its highest-coverage leaf into a rule, and
drop the instances that rule covers.

The partial tree expands only where it has to: children are explored in
order of increasing entropy, and as soon as one child keeps a real subtree
the remaining siblings are left unexplored.  A node whose children all
collapsed to leaves may itself collapse under the pessimistic error
estimate (``tree.estimated_errors``, the estimate C4.5 prunes with), which
is what keeps the extracted rules short.  The partial tree is one generator
per node on C4.5's grower (``tree.grow``); reduced-error pruning and the
choice of leaf use the tree module's walks.

Numeric columns are sorted once per induction; every partial tree takes
its nodes' orders from that one sort (see ``tree.restrict``).
"""

from __future__ import annotations

import numpy as np

from ..profiling import AttributeSchema
from .model import (
    InductionParams,
    Rule,
    RuleSet,
    covered_rule,
    covers,
    encode_training_set,
    merge_conditions,
)
from .tree import (
    TreeNode,
    _choose_split,
    _rep_prune,
    entropy,
    estimated_errors,
    grow,
    leaf_paths,
    presort,
    restrict,
    stratified_two_way,
)


def _partial_tree(
    X: np.ndarray,
    y_pos: np.ndarray,
    idx: np.ndarray,
    orders: np.ndarray,
    schema: AttributeSchema,
    n_classes: int,
    params: InductionParams,
) -> TreeNode:
    """Build a partial tree: children are expanded in order of increasing
    entropy, and expansion of further siblings stops as soon as one child
    keeps a real subtree.  Unexplored siblings stay as placeholder leaves.
    A node whose children all collapsed to leaves is itself collapsed when
    the pessimistic error estimate does not favour the split.

    ``orders`` is the presorted numeric columns of all rows of ``X``.
    """
    n_rows = X.shape[0]
    cf = params.pruning_confidence

    def node_for(node_idx: np.ndarray, split=None, expanded: bool = True) -> TreeNode:
        counts = np.bincount(y_pos[node_idx], minlength=n_classes).astype(float)
        node = TreeNode.for_split(counts, split)
        node.expanded = expanded
        return node

    def expand(node_idx: np.ndarray, node_orders: np.ndarray):
        split = None
        if node_idx.size >= 2 * params.min_instances:
            split = _choose_split(
                X, y_pos, node_idx, node_orders, schema, n_classes, params.min_instances
            )
        node = node_for(node_idx, split)
        if split is None:
            return node
        parts, _ = node.partition(X, node_idx)
        entropies = [
            entropy(np.bincount(y_pos[part], minlength=n_classes).astype(float))
            for part in parts
        ]
        for b in sorted(range(len(parts)), key=lambda b: (entropies[b], b)):
            child = node.children[b] = yield parts[b], restrict(node_orders, n_rows, parts[b])
            if not child.is_leaf:
                break
        else:
            subtree_est = sum(estimated_errors(c, cf) for c in node.children)
            if estimated_errors(node, cf) <= subtree_est + 0.1:
                node.make_leaf()
            return node
        for b, part in enumerate(parts):
            if node.children[b] is None:
                node.children[b] = node_for(part, expanded=False)
        return node

    return grow(expand, idx, restrict(orders, n_rows, idx))


def part_induce(
    X: np.ndarray,
    y: np.ndarray,
    schema: AttributeSchema,
    params: InductionParams,
) -> RuleSet:
    """Decision list from repeated partial-tree construction."""
    X, classes, y_pos = encode_training_set(X, y)
    n_classes = len(classes)
    global_counts = np.bincount(y_pos, minlength=n_classes)
    global_majority = int(np.argmax(global_counts))
    orders = presort(X, np.flatnonzero(schema.numeric_mask()))

    remaining = np.arange(X.shape[0])
    rules: list[Rule] = []
    iteration = 0
    default_pos = global_majority
    default_counts = global_counts
    while remaining.size:
        rng = np.random.default_rng([params.seed, iteration])
        if params.reduced_error_pruning and remaining.size >= params.folds_for_rep:
            grow_rel, prune_rel = stratified_two_way(
                y_pos[remaining], 1.0 / params.folds_for_rep, rng
            )
            grow_idx = remaining[grow_rel]
            prune_idx = remaining[prune_rel]
        else:
            grow_idx = remaining
            prune_idx = np.empty(0, dtype=np.int64)

        root = _partial_tree(X, y_pos, grow_idx, orders, schema, n_classes, params)
        if not root.is_leaf and params.reduced_error_pruning and prune_idx.size:
            _rep_prune(root, X[prune_idx], y_pos[prune_idx], global_majority)

        if root.is_leaf:
            node_counts = np.bincount(y_pos[remaining], minlength=n_classes)
            if np.count_nonzero(node_counts) == 1:
                # Remainder is pure: one catch-all rule closes the list.
                pure_cls = classes[int(np.argmax(node_counts))]
                rules.append(covered_rule((), pure_cls, y_pos[remaining], n_classes))
            else:
                # Coverage floor (or pruning) stopped expansion; the rest is
                # handled by the default class.
                default_pos = int(np.argmax(node_counts))
                default_counts = node_counts
            break

        # highest-coverage explored leaf; min() keeps the first in pre-order
        leaf_node, path = min(
            (lp for lp in leaf_paths(root) if lp[0].expanded), key=lambda lp: -lp[0].coverage
        )
        conditions = merge_conditions(path)
        mask = covers(X[remaining], conditions)
        cls = classes[leaf_node.class_pos]
        rules.append(covered_rule(conditions, cls, y_pos[remaining[mask]], n_classes))
        remaining = remaining[~mask]
        iteration += 1

    return RuleSet(
        rules=rules,
        default_class=classes[default_pos],
        default_counts=tuple(int(c) for c in default_counts),
        classes=classes,
        schema=schema,
        algorithm="part",
        params=params,
    )
