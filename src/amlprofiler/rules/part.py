"""PART-style rule extraction: repeatedly build a partial pruned tree on the
instances not yet covered, turn its highest-coverage leaf into a rule, and
drop the instances that rule covers.

The partial tree expands only where it has to: children are explored in
order of increasing entropy, and as soon as one child keeps a real subtree
the remaining siblings are left unexplored.  A node whose children all
collapsed to leaves may itself collapse under the pessimistic error
estimate, which is what keeps the extracted rules short.

Numeric columns are sorted once per induction; every partial tree takes
its nodes' orders from that one sort (see ``tree.restrict``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

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
    added_errors,
    entropy,
    leaf_paths,
    presort,
    restrict,
    stratified_two_way,
)

log = logging.getLogger(__name__)


@dataclass
class _Frame:
    idx: np.ndarray
    orders: np.ndarray  # idx in each numeric column's sorted order
    node: Optional[TreeNode] = None
    partitions: Optional[list[np.ndarray]] = None
    expansion_order: Optional[list[int]] = None
    next_child: int = 0
    blocked: bool = False  # a kept subtree stops further sibling expansion


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

    def node_for(node_idx: np.ndarray, split=None, expanded: bool = True) -> TreeNode:
        counts = np.bincount(y_pos[node_idx], minlength=n_classes).astype(float)
        node = TreeNode.for_split(counts, split)
        node.expanded = expanded
        return node

    def estimated_errors(node: TreeNode) -> float:
        n = float(node.coverage)
        e = n - float(node.class_counts[node.class_pos])
        return e + added_errors(n, e, params.pruning_confidence)

    stack = [_Frame(idx, restrict(orders, n_rows, idx))]
    finished: Optional[TreeNode] = None
    while stack:
        frame = stack[-1]
        if frame.node is None:
            split = None
            if frame.idx.size >= 2 * params.min_instances:
                split = _choose_split(
                    X, y_pos, frame.idx, frame.orders, schema, n_classes, params.min_instances
                )
            if split is None:
                finished = node_for(frame.idx)
                stack.pop()
                continue
            frame.node = node_for(frame.idx, split)
            frame.partitions, _ = frame.node.partition(X, frame.idx)
            entropies = [
                entropy(np.bincount(y_pos[part], minlength=n_classes).astype(float))
                for part in frame.partitions
            ]
            frame.expansion_order = sorted(
                range(len(frame.partitions)), key=lambda b: (entropies[b], b)
            )
        else:
            # a child expansion just returned
            branch = frame.expansion_order[frame.next_child]
            frame.node.children[branch] = finished
            frame.next_child += 1
            if not finished.is_leaf:
                frame.blocked = True

        if not frame.blocked and frame.next_child < len(frame.partitions):
            part = frame.partitions[frame.expansion_order[frame.next_child]]
            stack.append(_Frame(part, restrict(frame.orders, n_rows, part)))
            continue

        # no more children to expand: placeholders for unexplored siblings
        for pos in range(frame.next_child, len(frame.partitions)):
            branch = frame.expansion_order[pos]
            frame.node.children[branch] = node_for(frame.partitions[branch], expanded=False)
        node = frame.node
        all_expanded_leaves = frame.next_child == len(frame.partitions) and all(
            c.is_leaf for c in node.children
        )
        if all_expanded_leaves:
            subtree_est = sum(estimated_errors(c) for c in node.children)
            if estimated_errors(node) <= subtree_est + 0.1:
                node.make_leaf()
        finished = node
        stack.pop()
    return finished


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
