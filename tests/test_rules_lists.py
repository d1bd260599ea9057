"""PART and RIPPER rule lists, plus decision-list prediction semantics."""

import numpy as np
import pytest

from amlprofiler.profiling import Attribute, AttributeSchema, NOMINAL
from amlprofiler.rules import (
    Condition,
    InductionParams,
    OP_EQ,
    OP_GT,
    OP_LE,
    Rule,
    RuleSet,
    foil_gain,
    part_induce,
    ripper_induce,
    ruleset_from_json,
    ruleset_to_json,
)

from testkit import structural_violations


def numeric_schema(width):
    return AttributeSchema(tuple(Attribute(f"a{i}") for i in range(width)))


def three_blob_data(seed=0, n_per=80):
    rng = np.random.default_rng(seed)
    centers = [(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)]
    X = np.vstack([rng.normal(loc=c, scale=0.5, size=(n_per, 2)) for c in centers])
    y = np.repeat([0, 1, 2], n_per)
    return X, y


class TestPart:
    def test_nominal_separable_three_rules_zero_error(self):
        schema = AttributeSchema((Attribute("c", NOMINAL, ("r", "g", "b")), Attribute("x")))
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.integers(0, 3, 90).astype(float), rng.normal(size=90)])
        y = X[:, 0].astype(int) + 10
        rs = part_induce(X, y, schema, InductionParams())
        assert len(rs.rules) <= 3
        assert (rs.predict(X) == y).all()

    def test_coverage_floor_yields_default_only(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, size=100)
        rs = part_induce(X, y, numeric_schema(2), InductionParams(min_instances=1000))
        assert rs.rules == []
        counts = np.bincount(y)
        assert rs.default_class == int(np.argmax(counts))

    def test_pure_input_single_catch_all_rule(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([4, 4, 4])
        rs = part_induce(X, y, numeric_schema(1), InductionParams())
        assert len(rs.rules) == 1
        assert rs.rules[0].conditions == ()
        assert rs.rules[0].predicted_class == 4

    def test_every_rule_meets_min_instances(self):
        X, y = three_blob_data(seed=2, n_per=100)
        rs = part_induce(X, y, numeric_schema(2), InductionParams(min_instances=20))
        for rule in rs.rules:
            assert rule.coverage >= 20

    def test_blobs_high_accuracy(self):
        X, y = three_blob_data(seed=3)
        rs = part_induce(X, y, numeric_schema(2), InductionParams())
        assert (rs.predict(X) == y).mean() > 0.98

    def test_determinism(self):
        X, y = three_blob_data(seed=4)
        a = part_induce(X, y, numeric_schema(2), InductionParams(seed=9))
        b = part_induce(X, y, numeric_schema(2), InductionParams(seed=9))
        assert [r.conditions for r in a.rules] == [r.conditions for r in b.rules]
        assert a.default_class == b.default_class

    def test_rep_mode_runs_clean(self):
        X, y = three_blob_data(seed=5, n_per=120)
        rs = part_induce(
            X, y, numeric_schema(2), InductionParams(reduced_error_pruning=True, seed=2)
        )
        assert (rs.predict(X) == y).mean() > 0.95
        assert structural_violations(rs) == []

    def test_rule_count_non_increasing_in_min_instances(self):
        X, y = three_blob_data(seed=6, n_per=120)
        counts = []
        for mi in (2, 4, 8, 16, 32, 64):
            rs = part_induce(X, y, numeric_schema(2), InductionParams(min_instances=mi, seed=1))
            counts.append(rs.number_of_rules)
        assert all(b <= a for a, b in zip(counts, counts[1:]))


class TestRipper:
    def test_binary_attribute_minority_rule(self):
        schema = AttributeSchema((Attribute("flag", NOMINAL, ("no", "yes")), Attribute("z")))
        rng = np.random.default_rng(0)
        flag = np.array([1.0] * 15 + [0.0] * 45)
        X = np.column_stack([flag, rng.normal(size=60)])
        y = (flag == 1).astype(int)
        rs = ripper_induce(X, y, schema, InductionParams())
        assert len(rs.rules) == 1
        assert rs.rules[0].conditions == (Condition(0, OP_EQ, 1.0),)
        assert rs.rules[0].predicted_class == 1
        assert rs.default_class == 0

    def test_single_class_default_only(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([7, 7, 7])
        rs = ripper_induce(X, y, numeric_schema(1), InductionParams())
        assert rs.rules == []
        assert rs.default_class == 7

    def test_foil_gain_formula(self):
        assert foil_gain(10, 10, 10, 0) == pytest.approx(10.0)
        assert foil_gain(10, 10, 5, 5) == pytest.approx(0.0)
        assert foil_gain(10, 10, 0, 0) == -np.inf

    def test_rarest_class_covered_first(self):
        rng = np.random.default_rng(1)
        X = np.vstack(
            [
                rng.normal(loc=(0, 0), scale=0.4, size=(200, 2)),
                rng.normal(loc=(5, 5), scale=0.4, size=(30, 2)),
            ]
        )
        y = np.array([0] * 200 + [1] * 30)
        rs = ripper_induce(X, y, numeric_schema(2), InductionParams())
        assert rs.rules[0].predicted_class == 1
        assert rs.default_class == 0

    def test_blobs_accuracy_and_structure(self):
        rng = np.random.default_rng(2)
        X = np.vstack([
            rng.normal(loc=(0, 0), scale=0.5, size=(100, 2)),
            rng.normal(loc=(6, 0), scale=0.5, size=(60, 2)),
            rng.normal(loc=(0, 6), scale=0.5, size=(40, 2)),
        ])
        y = np.repeat([0, 1, 2], [100, 60, 40])
        rs = ripper_induce(X, y, numeric_schema(2), InductionParams())
        assert (rs.predict(X) == y).mean() > 0.97
        assert structural_violations(rs) == []
        assert rs.default_class == 0  # most frequent class is the default

    def test_determinism(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(150, 3))
        y = (X[:, 0] > 0.3).astype(int)
        a = ripper_induce(X, y, numeric_schema(3), InductionParams(seed=4))
        b = ripper_induce(X, y, numeric_schema(3), InductionParams(seed=4))
        assert [r.conditions for r in a.rules] == [r.conditions for r in b.rules]

    def test_min_instances_floor(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] > 0).astype(int)
        rs = ripper_induce(X, y, numeric_schema(2), InductionParams(min_instances=500))
        assert rs.rules == []


def tiny_ruleset():
    schema = numeric_schema(2)
    rules = [
        Rule((Condition(0, OP_LE, 1.0),), 1, 10, (0, 10, 0)),
        Rule((Condition(1, OP_GT, 2.0),), 2, 8, (0, 0, 8)),
        Rule((Condition(0, OP_GT, 5.0),), 0, 5, (5, 0, 0)),
    ]
    return RuleSet(
        rules=rules,
        default_class=0,
        default_counts=(7, 1, 1),
        classes=(0, 1, 2),
        schema=schema,
        algorithm="part",
        params=InductionParams(),
    )


class TestDecisionListSemantics:
    def test_first_match_wins(self):
        rs = tiny_ruleset()
        # matches rule 0 (a0 <= 1) and rule 1 (a1 > 2): rule 0 fires
        assert rs.predict(np.array([[0.5, 3.0]])).tolist() == [1]

    def test_unmatched_goes_to_default(self):
        rs = tiny_ruleset()
        assert rs.predict(np.array([[3.0, 1.0]])).tolist() == [0]

    def test_batch_predict_matches_naive_scan(self):
        rs = tiny_ruleset()
        rng = np.random.default_rng(5)
        X = rng.uniform(-2, 8, size=(1000, 2))
        batch = rs.predict(X)
        for i in range(X.shape[0]):
            expected = rs.default_class
            for rule in rs.rules:
                if all(c.matches(X[i]) for c in rule.conditions):
                    expected = rule.predicted_class
                    break
            assert batch[i] == expected

    def test_rule_class_outside_roster_rejected(self):
        obj = ruleset_to_json(tiny_ruleset())
        obj["rules"][1]["class"] = 7
        with pytest.raises(ValueError, match="class 7"):
            ruleset_from_json(obj)

    def test_scores_follow_matched_rule(self):
        rs = tiny_ruleset()
        scores = rs.class_scores(np.array([[0.5, 0.0], [3.0, 1.0]]))
        # first row matches rule 0: Laplace of (0, 10, 0)
        np.testing.assert_allclose(scores[0], np.array([1, 11, 1]) / 13)
        # second row falls to the default counts (7, 1, 1)
        np.testing.assert_allclose(scores[1], np.array([8, 2, 2]) / 12)
