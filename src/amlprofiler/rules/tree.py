"""Top-down decision-tree induction with gain ratio and two pruning modes.

Numeric attributes split binary at midpoints between consecutive distinct
values; nominal attributes split one branch per level present in the node.
The split chosen maximizes gain ratio among per-attribute candidates whose
information gain is at least the candidate average.  Pruning is bottom-up
subtree replacement, either pessimistic (confidence-bound error estimates)
or reduced-error against a held-out slice of the training data.

The split search never sorts at a node.  Each induction argsorts every
numeric column once (``presort``); a node's rows in each column's order are
its parent's orders filtered by membership (``restrict``), which is what a
stable argsort of the node's own values would give.  All numeric attributes
of a node are then scored in one pass: one cumulative class count over the
(attribute, position) grid and one entropy call over every admissible
boundary.  Nominal attributes share one (level, class) table per node,
built with a single ``bincount``.  This is the attribute-list scheme of
SLIQ and SPRINT.

Growth and pruning are iterative (explicit work lists), so tree depth is
not limited by the interpreter recursion limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Iterator, Optional, Sequence

import numpy as np

from ..evaluation import _stratified_take
from ..profiling import AttributeSchema
from .model import (
    OP_EQ,
    OP_GT,
    OP_LE,
    Condition,
    InductionParams,
    Rule,
    RuleSet,
    encode_training_set,
    laplace_table,
    merge_conditions,
)

_EPS = 1e-12


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a count vector."""
    n = counts.sum()
    if n <= 0:
        return 0.0
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of a count table."""
    totals = counts.sum(axis=1, keepdims=True)
    frac = counts / np.where(totals > 0, totals, 1)
    # an absent class takes log2(0 + 1) = 0 exactly, so it adds 0 * 0
    return -(frac * np.log2(frac + (counts == 0))).sum(axis=1)


@dataclass
class _Candidate:
    attr: int
    gain: float
    ratio: float
    threshold: Optional[float] = None  # numeric splits
    levels: tuple[int, ...] = ()  # nominal splits: levels present at the node


def presort(X: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Row ids of ``X`` in the stable ascending order of each listed column,
    one row per column: a (len(columns), N) matrix."""
    return np.argsort(X[:, columns].T, axis=1, kind="stable")


def restrict(orders: np.ndarray, n_rows: int, rows: np.ndarray) -> np.ndarray:
    """The presorted ``orders`` filtered to ``rows``, a subset of their ids.

    Filtering keeps each column's sorted order, so for ascending ``rows``
    every row of the result is the stable argsort of that column over
    ``rows``, found without sorting.
    """
    member = np.zeros(n_rows, dtype=bool)
    member[rows] = True
    return orders.compress(member[orders].ravel()).reshape(orders.shape[0], rows.size)


def value_changes(
    X: np.ndarray, columns: np.ndarray, orders: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A presorted scan of ``columns`` over a node's rows: their sorted
    values, one row per column, and every point where a column's value
    changes, as the row of its column and the number of sorted values at
    or below it.  Changes run by column, then ascending."""
    values = X[orders, columns[:, None]]
    att, last = np.nonzero(values[:, 1:] != values[:, :-1])
    return values, att, last + 1


def midpoint(values: np.ndarray, att, size):
    """The threshold of a value change found by ``value_changes``."""
    return (values[att, size - 1] + values[att, size]) / 2.0


def first_max_per_group(groups: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Index of the first maximum of ``scores`` within each run of equal,
    ascending ``groups``."""
    if groups.size == 0:
        return groups
    starts = np.flatnonzero(np.r_[True, groups[1:] != groups[:-1]])
    peaks = np.repeat(np.maximum.reduceat(scores, starts), np.diff(np.r_[starts, scores.size]))
    hits = np.flatnonzero(scores == peaks)
    return hits[np.r_[True, groups[hits[1:]] != groups[hits[:-1]]]]


def level_table(
    codes: np.ndarray, labels: np.ndarray, n_labels: int, n_levels: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(level, label) counts of every nominal column at once.

    ``codes`` holds one column per attribute; column j takes levels
    ``range(n_levels[j])``.  Row ``bounds[j] + v`` of the table counts the
    rows whose column j is level v, by label.
    """
    bounds = np.concatenate(([0], np.cumsum(n_levels, dtype=np.int64)))
    keys = (codes.astype(np.int64) + bounds[:-1]) * n_labels + labels[:, None]
    table = np.bincount(keys.ravel(), minlength=int(bounds[-1]) * n_labels)
    return table.reshape(-1, n_labels), bounds


def _numeric_splits(
    X: np.ndarray,
    y_pos: np.ndarray,
    orders: np.ndarray,
    columns: np.ndarray,
    counts: np.ndarray,
    min_instances: int,
    parent_h: float,
) -> list[_Candidate]:
    """The best admissible threshold of every numeric attribute at a node.

    ``orders`` holds the node's rows in each column's sorted order and
    ``counts`` its class counts.  Within an attribute the first maximum
    wins, so ties go to the lowest threshold.
    """
    n = orders.shape[1]
    values, att, size = value_changes(X, columns, orders)
    ok = (size >= min_instances) & (n - size >= min_instances)
    att, size = att[ok], size[ok]
    if att.size == 0:
        return []
    # class counts of every sorted prefix: (attribute, position, class)
    cum = np.zeros((*orders.shape, counts.size), dtype=np.int32)
    cum.reshape(orders.size, -1)[np.arange(orders.size), y_pos[orders].ravel()] = 1
    np.cumsum(cum, axis=1, out=cum)
    left = cum[att, size - 1].astype(float)
    right = counts - left
    nl = size.astype(float)
    nr = n - nl
    gains = parent_h - (nl * _entropy_rows(left) + nr * _entropy_rows(right)) / n
    best = first_max_per_group(att, gains)
    split_h = _entropy_rows(np.stack([nl[best], nr[best]], axis=1))
    return [
        _Candidate(
            attr=int(columns[att[i]]),
            gain=float(gains[i]),
            ratio=float(gains[i]) / h if h > _EPS else 0.0,
            threshold=float(midpoint(values, att[i], size[i])),
        )
        for i, h in zip(best, split_h.tolist())
    ]


def _nominal_splits(
    codes: np.ndarray,
    y_pos: np.ndarray,
    n_classes: int,
    n_levels: Sequence[int],
    min_instances: int,
    parent_h: float,
) -> list[_Candidate]:
    """The one-branch-per-present-level split of every column of ``codes``
    that has at least two levels present, none below ``min_instances``.
    A candidate's ``attr`` is its column position in ``codes``."""
    n = codes.shape[0]
    table, bounds = level_table(codes, y_pos, n_classes, n_levels)
    table = table.astype(float)
    sizes = table.sum(axis=1)
    present = sizes > 0

    def per_column(flags: np.ndarray) -> np.ndarray:
        running = np.concatenate(([0], np.cumsum(flags)))
        return running[bounds[1:]] - running[bounds[:-1]]

    ok = (per_column(present) >= 2) & (per_column(present & (sizes < min_instances)) == 0)
    rows = present & np.repeat(ok, n_levels)
    weighted = sizes[rows] * _entropy_rows(table[rows])
    p = sizes[rows] / n
    terms = p * np.log2(p)
    out = []
    start = 0
    for j in np.flatnonzero(ok).tolist():
        levels = np.flatnonzero(present[bounds[j] : bounds[j + 1]])
        stop = start + levels.size
        gain = parent_h - float(weighted[start:stop].sum()) / n
        split_h = float(-terms[start:stop].sum())
        ratio = gain / split_h if split_h > _EPS else 0.0
        out.append(_Candidate(attr=j, gain=gain, ratio=ratio, levels=tuple(levels.tolist())))
        start = stop
    return out


def _choose_split(
    X: np.ndarray,
    y_pos: np.ndarray,
    idx: np.ndarray,
    orders: np.ndarray,
    schema: AttributeSchema,
    n_classes: int,
    min_instances: int,
) -> Optional[_Candidate]:
    """Best admissible split at a node, or None.

    ``orders`` holds the node's rows ``idx`` in each numeric column's sorted
    order.  Per attribute the best threshold is found first; across
    attributes the winner maximizes gain ratio among candidates with info
    gain at least the candidate average (and strictly positive).  Ties break
    to the lowest attribute index.
    """
    y_node = y_pos[idx]
    counts = np.bincount(y_node, minlength=n_classes).astype(float)
    parent_h = entropy(counts)
    if parent_h <= _EPS:
        return None
    numeric = schema.numeric_mask()
    candidates = _numeric_splits(
        X, y_pos, orders, np.flatnonzero(numeric), counts, min_instances, parent_h
    )
    nominal = np.flatnonzero(~numeric)
    if nominal.size:
        n_levels = [len(schema.attributes[j].levels) for j in nominal]
        codes = X[np.ix_(idx, nominal)]
        for cand in _nominal_splits(codes, y_node, n_classes, n_levels, min_instances, parent_h):
            cand.attr = int(nominal[cand.attr])
            candidates.append(cand)
    if not candidates:
        return None
    candidates.sort(key=lambda c: c.attr)
    for cand in candidates:
        cand.gain = max(cand.gain, 0.0)
    # A zero-gain split stays admissible when nothing beats it (an xor-style
    # attribute pair needs one); the average-gain filter removes it whenever
    # any informative candidate exists.
    avg_gain = sum(c.gain for c in candidates) / len(candidates)
    admissible = [c for c in candidates if c.gain >= avg_gain - _EPS]
    return max(admissible, key=lambda c: (c.ratio, -c.attr))


@dataclass
class TreeNode:
    class_counts: np.ndarray  # roster-aligned counts of routed training instances
    class_pos: int  # majority class position, fixed at build time
    attr: int = -1
    threshold: float = math.nan
    branch_levels: tuple[int, ...] = ()
    children: Optional[list["TreeNode"]] = None
    # partial-tree construction can leave subsets unexplored; such leaves
    # predict normally but are not eligible as best-leaf rule sources
    expanded: bool = True

    @staticmethod
    def for_split(counts: np.ndarray, split: Optional["_Candidate"]) -> "TreeNode":
        """A majority-class leaf, or an internal node with empty child slots."""
        node = TreeNode(counts, int(np.argmax(counts)))
        if split is not None:
            node.attr = split.attr
            if split.threshold is not None:
                node.threshold = split.threshold
            node.branch_levels = split.levels  # empty for a binary numeric split
            node.children = [None] * (len(split.levels) or 2)
        return node

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def coverage(self) -> int:
        return int(self.class_counts.sum())

    def partition(self, X: np.ndarray, idx: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Row indices routed to each child, plus the rows whose nominal
        level has no branch here (always empty for a numeric split)."""
        col = X[idx, self.attr]
        if not self.branch_levels:
            left = col <= self.threshold
            return [idx[left], idx[~left]], idx[:0]
        masks = [col == level for level in self.branch_levels]
        return [idx[m] for m in masks], idx[~np.any(masks, axis=0)]

    def make_leaf(self) -> None:
        self.children = None
        self.attr = -1
        self.branch_levels = ()


def leaf_paths(root: TreeNode) -> Iterator[tuple[TreeNode, tuple[Condition, ...]]]:
    """Every leaf with the conditions on its path, in pre-order."""
    stack: list[tuple[TreeNode, tuple[Condition, ...]]] = [(root, ())]
    while stack:
        node, path = stack.pop()
        if node.is_leaf:
            yield node, path
            continue
        if node.branch_levels:
            conds = [Condition(node.attr, OP_EQ, float(level)) for level in node.branch_levels]
        else:
            conds = [Condition(node.attr, OP_LE, node.threshold),
                     Condition(node.attr, OP_GT, node.threshold)]
        for child, cond in reversed(list(zip(node.children, conds))):
            stack.append((child, path + (cond,)))


@dataclass
class DecisionTree:
    root: TreeNode
    classes: tuple[int, ...]
    schema: AttributeSchema
    params: InductionParams
    algorithm: str = "c45_tree"

    @property
    def global_majority_pos(self) -> int:
        return int(np.argmax(self.root.class_counts))

    @property
    def number_of_rules(self) -> int:
        """Leaf count; the tree analogue of a rule count."""
        return sum(1 for _ in self.leaves())

    def leaves(self) -> Iterator[TreeNode]:
        return (leaf for leaf, _ in leaf_paths(self.root))

    def _deciding_leaf(self, X: np.ndarray) -> tuple[list[TreeNode], np.ndarray]:
        """The tree's leaves and, per row, the index of the leaf it reaches,
        or ``len(leaves)`` when a nominal level with no branch on its path
        leaves it to the global majority."""
        leaves = [node for node in _bfs(self.root) if node.is_leaf]
        slot = {id(leaf): i for i, leaf in enumerate(leaves)}
        out = np.full(X.shape[0], len(leaves), dtype=np.int64)
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if node.is_leaf:
                out[idx] = slot[id(node)]
            elif idx.size:
                stack.extend(zip(node.children, node.partition(X, idx)[0]))
        return leaves, out

    def predict(self, X: np.ndarray) -> np.ndarray:
        leaves, slots = self._deciding_leaf(X)
        positions = [leaf.class_pos for leaf in leaves] + [self.global_majority_pos]
        return np.asarray(self.classes, dtype=np.int64)[positions][slots]

    def class_scores(self, X: np.ndarray) -> np.ndarray:
        leaves, slots = self._deciding_leaf(X)
        counts = [leaf.class_counts for leaf in leaves] + [self.root.class_counts]
        return laplace_table(counts)[slots]


def _grow_tree(
    X: np.ndarray,
    y_pos: np.ndarray,
    idx: np.ndarray,
    schema: AttributeSchema,
    n_classes: int,
    min_instances: int,
) -> TreeNode:
    """Grow an unpruned tree over the rows ``idx`` of ``X``, sorting each
    numeric column once."""
    n_rows = X.shape[0]
    orders = restrict(presort(X, np.flatnonzero(schema.numeric_mask())), n_rows, idx)
    holder: list[Optional[TreeNode]] = [None]
    work = [(idx, orders, holder, 0)]
    while work:
        node_idx, orders, container, pos = work.pop()
        counts = np.bincount(y_pos[node_idx], minlength=n_classes).astype(float)
        split = None
        if node_idx.size >= 2 * min_instances:
            split = _choose_split(X, y_pos, node_idx, orders, schema, n_classes, min_instances)
        node = container[pos] = TreeNode.for_split(counts, split)
        if split is not None:
            parts, _ = node.partition(X, node_idx)
            work.extend(
                (sub, restrict(orders, n_rows, sub), node.children, b)
                for b, sub in enumerate(parts)
            )
    return holder[0]


def _bfs(root: TreeNode) -> list[TreeNode]:
    order = [root]
    i = 0
    while i < len(order):
        node = order[i]
        if not node.is_leaf:
            order.extend(node.children)
        i += 1
    return order


@lru_cache(maxsize=16)
def _z_value(cf: float) -> float:
    return NormalDist().inv_cdf(1.0 - cf)


def added_errors(n: float, e: float, cf: float) -> float:
    """C4.5 pessimistic correction: extra errors implied by the upper
    confidence bound of the training error rate e/n."""
    if n <= 0:
        return 0.0
    if e < 1:
        base = n * (1.0 - cf ** (1.0 / n))
        if e == 0:
            return base
        return base + e * (added_errors(n, 1.0, cf) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = _z_value(cf)
    f = (e + 0.5) / n
    r = (f + z * z / (2 * n) + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) / (
        1 + z * z / n
    )
    return r * n - e


def _pessimistic_prune(root: TreeNode, cf: float) -> None:
    estimates: dict[int, float] = {}
    for node in reversed(_bfs(root)):
        n = float(node.coverage)
        e_leaf = n - float(node.class_counts[node.class_pos])
        leaf_est = e_leaf + added_errors(n, e_leaf, cf)
        if node.is_leaf:
            estimates[id(node)] = leaf_est
            continue
        subtree_est = sum(estimates[id(c)] for c in node.children)
        if leaf_est <= subtree_est + 0.1:
            node.make_leaf()
            estimates[id(node)] = leaf_est
        else:
            estimates[id(node)] = subtree_est


def _rep_prune(
    root: TreeNode, X_prune: np.ndarray, y_prune_pos: np.ndarray, global_majority: int
) -> None:
    """Subtree replacement driven by held-out error; never increases it."""
    order = _bfs(root)
    routed: dict[int, np.ndarray] = {id(root): np.arange(X_prune.shape[0])}
    missed: dict[int, np.ndarray] = {}
    for node in order:
        if not node.is_leaf:
            parts, missed[id(node)] = node.partition(X_prune, routed[id(node)])
            for child, sub in zip(node.children, parts):
                routed[id(child)] = sub

    errors: dict[int, float] = {}
    for node in reversed(order):
        y_here = y_prune_pos[routed[id(node)]]
        leaf_err = float((y_here != node.class_pos).sum())
        if node.is_leaf:
            errors[id(node)] = leaf_err
            continue
        subtree_err = sum(errors[id(c)] for c in node.children)
        subtree_err += float((y_prune_pos[missed[id(node)]] != global_majority).sum())
        if leaf_err <= subtree_err:
            node.make_leaf()
            errors[id(node)] = leaf_err
        else:
            errors[id(node)] = subtree_err


def refresh_counts(tree: DecisionTree, X: np.ndarray, y_pos: np.ndarray) -> None:
    """Recompute per-node class counts by routing the given instances, whose
    classes are given as positions in ``tree.classes``.

    Used after reduced-error pruning so stored distributions describe the
    whole training set, not just the growing partition.  Leaf classes are
    not changed.
    """
    k = len(tree.classes)
    stack = [(tree.root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        node.class_counts = np.bincount(y_pos[idx], minlength=k).astype(float)
        if not node.is_leaf:
            stack.extend(zip(node.children, node.partition(X, idx)[0]))


def stratified_two_way(
    y: np.ndarray, holdout_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded stratified split into (main, holdout) index arrays; the
    holdout has exactly floor(fraction * n) rows."""
    target = math.floor(holdout_fraction * y.shape[0])
    holdout, main = _stratified_take(y, holdout_fraction, target, rng)
    return main, holdout


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    schema: AttributeSchema,
    params: InductionParams,
) -> DecisionTree:
    """Grow and prune a decision tree over cluster-labeled instances."""
    X, classes, y_pos = encode_training_set(X, y)
    n_classes = len(classes)

    if params.reduced_error_pruning and X.shape[0] >= params.folds_for_rep:
        rng = np.random.default_rng(params.seed)
        grow_idx, prune_idx = stratified_two_way(y_pos, 1.0 / params.folds_for_rep, rng)
        root = _grow_tree(X, y_pos, grow_idx, schema, n_classes, params.min_instances)
        global_majority = int(np.argmax(np.bincount(y_pos[grow_idx], minlength=n_classes)))
        if prune_idx.size:
            _rep_prune(root, X[prune_idx], y_pos[prune_idx], global_majority)
        tree = DecisionTree(root, classes, schema, params)
        refresh_counts(tree, X, y_pos)
        return tree

    root = _grow_tree(X, y_pos, np.arange(X.shape[0]), schema, n_classes, params.min_instances)
    _pessimistic_prune(root, params.pruning_confidence)
    return DecisionTree(root, classes, schema, params)


def tree_to_rules(tree: DecisionTree) -> RuleSet:
    """One rule per leaf, path bounds merged, ordered by descending coverage
    (pre-order breaks ties).

    The default is the global majority class, which is also what the tree
    itself predicts for nominal levels with no branch, so rule-set and tree
    predictions agree on every instance.
    """
    leaves = sorted(leaf_paths(tree.root), key=lambda lp: -lp[0].coverage)  # stable
    rules = [
        Rule(
            conditions=merge_conditions(path),
            predicted_class=tree.classes[node.class_pos],
            coverage=node.coverage,
            class_counts=tuple(int(c) for c in node.class_counts),
        )
        for node, path in leaves
    ]
    return RuleSet(
        rules=rules,
        default_class=tree.classes[tree.global_majority_pos],
        default_counts=tuple(int(c) for c in tree.root.class_counts),
        classes=tree.classes,
        schema=tree.schema,
        algorithm=f"{tree.algorithm}_rules",
        params=tree.params,
    )
