import math

import numpy as np
import pytest

from amlprofiler.profiling import Attribute, AttributeSchema, NOMINAL
from amlprofiler.rules import (
    Condition,
    InductionParams,
    OP_EQ,
    OP_GT,
    OP_LE,
    build_tree,
    tree_to_rules,
)
from amlprofiler.rules.model import merge_conditions
from amlprofiler.rules.tree import _grow_tree, _z_value, added_errors, stratified_two_way

from testkit import split_score, structural_violations


def numeric_schema(width):
    return AttributeSchema(tuple(Attribute(f"a{i}") for i in range(width)))


def entropy_oracle(labels):
    n = len(labels)
    h = 0.0
    for c in set(labels):
        p = labels.count(c) / n
        h -= p * math.log2(p)
    return h


def split_score_oracle(X, y, attr, threshold):
    y = list(y)
    left = [y[i] for i in range(len(y)) if X[i, attr] <= threshold]
    right = [y[i] for i in range(len(y)) if X[i, attr] > threshold]
    if not left or not right:
        return 0.0, 0.0
    n = len(y)
    gain = entropy_oracle(y) - (len(left) * entropy_oracle(left) + len(right) * entropy_oracle(right)) / n
    split_h = entropy_oracle([0] * len(left) + [1] * len(right))
    return gain, (gain / split_h if split_h > 0 else 0.0)


class TestSplitScore:
    def test_constant_attribute_zero_gain(self):
        X = np.array([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        gain, ratio = split_score(X, y, numeric_schema(1), 0, threshold=1.5)
        assert gain == 0.0 and ratio == 0.0

    def test_perfect_binary_split(self):
        schema = AttributeSchema((Attribute("b", NOMINAL, ("n", "y")),))
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        gain, ratio = split_score(X, y, schema, 0)
        assert gain == pytest.approx(1.0)
        assert ratio == pytest.approx(1.0)

    def test_four_instance_best_threshold(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        scores = {t: split_score(X, y, numeric_schema(1), 0, threshold=t)[0]
                  for t in (1.5, 2.5, 3.5)}
        assert max(scores, key=scores.get) == 2.5
        assert scores[2.5] == pytest.approx(1.0)

    def test_gain_ratio_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(0)
        schema = numeric_schema(2)
        for _ in range(500):
            n = int(rng.integers(4, 21))
            X = rng.integers(0, 6, size=(n, 2)).astype(float)
            y = rng.integers(0, 3, size=n)
            attr = int(rng.integers(0, 2))
            values = np.unique(X[:, attr])
            if values.size < 2:
                continue
            threshold = float((values[0] + values[1]) / 2)
            gain, ratio = split_score(X, y, schema, attr, threshold=threshold)
            o_gain, o_ratio = split_score_oracle(X, y, attr, threshold)
            assert gain == pytest.approx(o_gain, abs=1e-9)
            assert ratio == pytest.approx(o_ratio, abs=1e-9)


class TestBuildTree:
    def test_pure_input_single_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([5, 5, 5])
        tree = build_tree(X, y, numeric_schema(1), InductionParams())
        assert tree.root.is_leaf
        assert tree.predict(X).tolist() == [5, 5, 5]

    def test_min_instances_above_n_single_leaf(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0, 0, 0, 1])
        tree = build_tree(X, y, numeric_schema(1), InductionParams(min_instances=10))
        assert tree.root.is_leaf
        assert tree.predict(X).tolist() == [0, 0, 0, 0]

    def test_xor_depth_two_full_accuracy(self):
        X = np.tile(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), (100, 1))
        y = (X[:, 0] != X[:, 1]).astype(int)
        tree = build_tree(X, y, numeric_schema(2), InductionParams())

        def depth(node):
            return 0 if node.is_leaf else 1 + max(depth(c) for c in node.children)

        assert depth(tree.root) == 2
        assert (tree.predict(X) == y).all()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            build_tree(np.empty((0, 2)), np.empty(0, dtype=int), numeric_schema(2), InductionParams())

    def test_leaf_coverage_respects_minimum(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] + 0.2 * rng.normal(size=300) > 0).astype(int)
        tree = build_tree(X, y, numeric_schema(3), InductionParams(min_instances=15))
        for leaf in tree.leaves():
            assert leaf.coverage >= 15

    def test_determinism(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 3, size=200)
        params = InductionParams(seed=7)
        a = build_tree(X, y, numeric_schema(4), params)
        b = build_tree(X, y, numeric_schema(4), params)
        assert np.array_equal(a.predict(X), b.predict(X))
        assert a.number_of_rules == b.number_of_rules

    def test_rep_never_hurts_on_prune_partition(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 4))
        y = ((X[:, 0] > 0) ^ (rng.random(400) < 0.25)).astype(int)
        params = InductionParams(reduced_error_pruning=True, seed=11)
        classes, y_pos = np.unique(y, return_inverse=True)
        split_rng = np.random.default_rng(params.seed)
        grow_idx, prune_idx = stratified_two_way(y_pos, 1.0 / params.folds_for_rep, split_rng)
        pruned = build_tree(X, y, numeric_schema(4), params)
        unpruned_root = _grow_tree(
            X, y_pos, grow_idx, numeric_schema(4), classes.size, params.min_instances
        )
        from amlprofiler.rules.tree import DecisionTree

        unpruned = DecisionTree(unpruned_root, tuple(classes.tolist()), numeric_schema(4), params)
        err_pruned = (pruned.predict(X[prune_idx]) != y[prune_idx]).sum()
        err_unpruned = (unpruned.predict(X[prune_idx]) != y[prune_idx]).sum()
        assert err_pruned <= err_unpruned

    def test_rep_smaller_or_equal_tree(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(500, 4))
        y = rng.integers(0, 2, size=500)
        plain = build_tree(X, y, numeric_schema(4), InductionParams(seed=3))
        rep = build_tree(X, y, numeric_schema(4), InductionParams(seed=3, reduced_error_pruning=True))
        assert rep.number_of_rules <= plain.number_of_rules


class TestAddedErrors:
    def test_zero_errors_positive_estimate(self):
        assert added_errors(100, 0, 0.25) > 0

    def test_monotone_in_errors(self):
        e1 = added_errors(50, 1, 0.25)
        e5 = added_errors(50, 5, 0.25)
        assert e1 > 0 and e5 > 0

    def test_saturated(self):
        assert added_errors(10, 10, 0.25) == 0.0

    def test_z_value_at_default_confidence(self):
        assert _z_value(0.25) == 0.6744897501960817


class TestStratifiedTwoWay:
    def test_golden_indices(self):
        # recorded before the stratified split was shared with holdout_split;
        # three classes tie on the float remainder of n_c / 3
        y = np.array([2, 0, 1, 1, 0, 2, 2, 1, 0, 0, 1, 2, 2, 2, 0, 1, 1, 0, 2, 1, 0, 0, 2, 1, 1, 3, 3])
        main, holdout = stratified_two_way(y, 1 / 3, np.random.default_rng(7))
        assert main.tolist() == [0, 2, 3, 4, 5, 6, 8, 9, 12, 13, 14, 15, 16, 17, 18, 19, 23, 26]
        assert holdout.tolist() == [1, 7, 10, 11, 20, 21, 22, 24, 25]


class TestTreeToRules:
    def test_single_leaf_empty_rule(self):
        X = np.array([[1.0], [2.0]])
        y = np.array([3, 3])
        tree = build_tree(X, y, numeric_schema(1), InductionParams())
        rs = tree_to_rules(tree)
        assert len(rs.rules) == 1
        assert rs.rules[0].conditions == ()
        assert rs.default_class == 3

    def test_rule_per_leaf(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 3))
        y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
        tree = build_tree(X, y, numeric_schema(3), InductionParams())
        rs = tree_to_rules(tree)
        assert len(rs.rules) == tree.number_of_rules

    def test_rules_ordered_by_coverage(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(400, 3))
        y = (X[:, 0] > 0.7).astype(int)
        rs = tree_to_rules(build_tree(X, y, numeric_schema(3), InductionParams()))
        coverages = [r.coverage for r in rs.rules]
        assert coverages == sorted(coverages, reverse=True)

    def test_equivalence_on_ten_thousand_instances(self):
        rng = np.random.default_rng(7)
        schema = AttributeSchema(
            (Attribute("x0"), Attribute("x1"), Attribute("c", NOMINAL, ("a", "b", "c", "d")))
        )
        # level "d" never occurs in training, so no node has a branch for it
        X_train = np.column_stack(
            [rng.normal(size=800), rng.normal(size=800), rng.integers(0, 3, 800).astype(float)]
        )
        y_train = ((X_train[:, 0] > 0).astype(int) + (X_train[:, 2] == 1).astype(int))
        tree = build_tree(X_train, y_train, schema, InductionParams(min_instances=5))
        rs = tree_to_rules(tree)
        X_test = np.column_stack(
            [rng.normal(size=10_000), rng.normal(size=10_000),
             rng.integers(0, 4, 10_000).astype(float)]
        )
        leaves, slots = tree._deciding_leaf(X_test)
        assert (slots == len(leaves)).sum() > 1000  # the global-majority fallback is exercised
        assert np.array_equal(rs.predict(X_test), tree.predict(X_test))
        assert np.array_equal(rs.class_scores(X_test), tree.class_scores(X_test))

    def test_no_contradictory_bounds(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            X = rng.normal(size=(300, 4))
            y = rng.integers(0, 3, size=300)
            rs = tree_to_rules(build_tree(X, y, numeric_schema(4), InductionParams(seed=trial)))
            assert structural_violations(rs) == []


class TestMergeConditions:
    def test_tightest_bounds_kept(self):
        merged = merge_conditions(
            (
                Condition(0, OP_LE, 5.0),
                Condition(0, OP_LE, 3.0),
                Condition(1, OP_GT, 1.0),
                Condition(1, OP_GT, 2.0),
            )
        )
        assert merged == (Condition(0, OP_LE, 3.0), Condition(1, OP_GT, 2.0))

    def test_duplicate_equality_collapses(self):
        merged = merge_conditions((Condition(2, OP_EQ, 1.0), Condition(2, OP_EQ, 1.0)))
        assert merged == (Condition(2, OP_EQ, 1.0),)

    def test_conflicting_equality_rejected(self):
        with pytest.raises(ValueError):
            merge_conditions((Condition(2, OP_EQ, 1.0), Condition(2, OP_EQ, 2.0)))
