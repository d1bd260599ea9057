"""Differential tests of the presorted, batched split searches against
brute-force scans that try every threshold and every nominal level one at
a time, and of the matmul silhouette against a per-point oracle."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amlprofiler.clustering import pairwise_distances
from amlprofiler.profiling import NOMINAL, Attribute, AttributeSchema
from amlprofiler.rules.model import OP_EQ, OP_GT, OP_LE, Condition, covers
from amlprofiler.rules.ripper import _best_refinement, _gain_vector, _Stage, foil_gain
from amlprofiler.rules.tree import (
    _EPS,
    _choose_split,
    _entropy_rows,
    entropy,
    presort,
    restrict,
)
from amlprofiler.validity import silhouette


@st.composite
def node_data(draw):
    """Small mixed data with many ties, and an ascending subset of rows."""
    n_numeric = draw(st.integers(0, 3))
    n_levels = draw(st.lists(st.integers(2, 4), min_size=0 if n_numeric else 1, max_size=2))
    n = draw(st.integers(2, 30))
    n_classes = draw(st.integers(2, 4))
    columns = [
        np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))) * 0.3
        for _ in range(n_numeric)
    ] + [
        np.array(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)), dtype=float)
        for levels in n_levels
    ]
    X = np.column_stack(columns)
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    idx = np.flatnonzero(keep)
    if idx.size < 2:
        idx = np.arange(n)
    schema = AttributeSchema(
        tuple(Attribute(f"x{j}") for j in range(n_numeric))
        + tuple(
            Attribute(f"c{j}", NOMINAL, tuple(f"l{v}" for v in range(levels)))
            for j, levels in enumerate(n_levels)
        )
    )
    return X, y, idx, schema, n_classes


def brute_force_split(X, y_pos, idx, schema, n_classes, min_instances):
    """The tree's split rule, scoring one threshold or level set at a time."""
    y_node = y_pos[idx]
    n = idx.size
    parent_h = entropy(np.bincount(y_node, minlength=n_classes).astype(float))
    if parent_h <= _EPS:
        return None
    candidates = []
    for j, attr in enumerate(schema.attributes):
        col = X[idx, j]
        if attr.kind != NOMINAL:
            values = np.unique(col)
            best = None
            for t in (values[1:] + values[:-1]) / 2.0:
                left = col <= t
                nl = int(left.sum())
                if nl < min_instances or n - nl < min_instances:
                    continue
                counts = np.array(
                    [np.bincount(y_node[left], minlength=n_classes),
                     np.bincount(y_node[~left], minlength=n_classes)], dtype=float
                )
                h = _entropy_rows(counts)
                gain = float(parent_h - (nl * h[0] + (n - nl) * h[1]) / n)
                if best is None or gain > best[0]:
                    best = (gain, float(t), nl)
            if best is None:
                continue
            gain, t, nl = best
            split_h = entropy(np.array([nl, n - nl], dtype=float))
            ratio = gain / split_h if split_h > _EPS else 0.0
            candidates.append((j, gain, ratio, t, ()))
        else:
            levels = [v for v in range(len(attr.levels)) if (col == v).any()]
            sizes = np.array([(col == v).sum() for v in levels], dtype=float)
            if len(levels) < 2 or (sizes < min_instances).any():
                continue
            table = np.array(
                [np.bincount(y_node[col == v], minlength=n_classes) for v in levels], dtype=float
            )
            gain = parent_h - float((sizes * _entropy_rows(table)).sum()) / n
            split_h = entropy(sizes)
            ratio = gain / split_h if split_h > _EPS else 0.0
            candidates.append((j, gain, ratio, None, tuple(levels)))
    if not candidates:
        return None
    candidates = [(j, max(g, 0.0), r, t, lv) for j, g, r, t, lv in candidates]
    avg_gain = sum(c[1] for c in candidates) / len(candidates)
    admissible = [c for c in candidates if c[1] >= avg_gain - _EPS]
    return max(admissible, key=lambda c: (c[2], -c[0]))


class TestChooseSplit:
    @given(node_data(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, data, min_instances):
        X, y, idx, schema, n_classes = data
        numeric = np.flatnonzero(schema.numeric_mask())
        orders = restrict(presort(X, numeric), X.shape[0], idx)
        got = _choose_split(X, y, idx, orders, schema, n_classes, min_instances)
        want = brute_force_split(X, y, idx, schema, n_classes, min_instances)
        if want is None:
            assert got is None
            return
        attr, gain, ratio, threshold, levels = want
        assert got is not None
        assert (got.attr, got.threshold, got.levels) == (attr, threshold, levels)
        assert got.gain == gain  # bit-equal
        assert got.ratio == ratio

    @given(node_data())
    @settings(max_examples=100, deadline=None)
    def test_restricted_order_is_the_nodes_own_stable_argsort(self, data):
        X, _, idx, schema, _ = data
        numeric = np.flatnonzero(schema.numeric_mask())
        orders = restrict(presort(X, numeric), X.shape[0], idx)
        for row, j in zip(orders, numeric):
            assert np.array_equal(row, idx[np.argsort(X[idx, j], kind="stable")])


def brute_force_refinement(X, is_pos, rows, schema, min_coverage):
    """RIPPER's best refinement, trying each threshold side and level alone."""
    p0 = int(is_pos[rows].sum())
    n0 = rows.size - p0
    best_key, best_cond = None, None
    for j, attr in enumerate(schema.attributes):
        col = X[rows, j]
        if attr.kind == NOMINAL:
            options = [(OP_EQ, 2, float(v)) for v in range(len(attr.levels))]
        else:
            values = np.unique(col)
            mids = (values[1:] + values[:-1]) / 2.0
            options = [(op, rank, float(t)) for t in mids for rank, op in enumerate((OP_LE, OP_GT))]
        for op, rank, value in options:
            cond = Condition(j, op, value)
            sel = covers(X[rows], (cond,))
            size = int(sel.sum())
            if size < min_coverage:
                continue
            p = int(is_pos[rows][sel].sum())
            if op == OP_EQ:
                gain = foil_gain(p0, n0, p, size - p)
            else:
                p_vec, n_vec = np.array([p], float), np.array([size - p], float)
                gain = float(_gain_vector(p_vec, n_vec, p0, n0)[0])
            if gain <= 0:
                continue
            key = (gain, -j, -rank, -value)
            if best_key is None or key > best_key:
                best_key, best_cond = key, cond
    return best_cond


class TestRipperRefinement:
    @given(node_data(), st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, data, min_coverage):
        X, y, rows, schema, _ = data
        is_pos = y == 0
        p0 = int(is_pos[rows].sum())
        n0 = rows.size - p0
        if p0 == 0 or n0 == 0:
            return
        stage = _Stage(
            X=X,
            is_pos=is_pos,
            orders=presort(X, np.flatnonzero(schema.numeric_mask())),
            schema=schema,
            m_possible=1,
            exp_fp_over_err=0.5,
        )
        orders = restrict(stage.orders, X.shape[0], rows)
        got = _best_refinement(stage, rows, orders, p0, n0, min_coverage)
        assert got == brute_force_refinement(X, is_pos, rows, schema, min_coverage)


def silhouette_oracle(D, labels):
    n = len(labels)
    total = 0.0
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue
        a = sum(D[i, j] for j in own) / len(own)
        b = math.inf
        for c in set(labels) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == c]
            b = min(b, sum(D[i, j] for j in members) / len(members))
        denom = max(a, b)
        total += (b - a) / denom if denom > 0 else 0.0
    return total / n


class TestSilhouette:
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=3, max_size=30),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_point_oracle(self, points, data):
        X = np.array(points, dtype=float)
        labels = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)))
        )
        if np.unique(labels).size < 2:
            labels[0] = labels[0] + 1
        D = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        schema = AttributeSchema((Attribute("a"), Attribute("b")))
        # integer coordinates: these distances are the ones silhouette computes
        assert np.array_equal(pairwise_distances(X, "euclidean", schema), D)
        got = silhouette(X, labels, schema)
        assert abs(got - silhouette_oracle(D, labels.tolist())) <= 1e-12
