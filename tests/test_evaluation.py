import io
import math

import numpy as np
import pytest

from amlprofiler import clustering, evaluation
from amlprofiler.evaluation import (
    ConfusionMatrix,
    SplitSpec,
    auc_from_scores,
    cross_validate,
    cv_folds,
    evaluate,
    holdout_split,
    split,
    weighted_roc,
    write_report_rows,
)
from amlprofiler.profiling import Attribute, AttributeSchema

from testkit import classes_to_clusters


def numeric_schema(width):
    return AttributeSchema(tuple(Attribute(f"a{i}") for i in range(width)))


class StubModel:
    """Deterministic classifier stub: labels and scores supplied by a rule."""

    def __init__(self, classes, predict_fn, scores_fn=None, number_of_rules=1):
        self.classes = tuple(classes)
        self._predict = predict_fn
        self._scores = scores_fn
        self.number_of_rules = number_of_rules

    def predict(self, X):
        return np.asarray([self._predict(row) for row in X])

    def class_scores(self, X):
        if self._scores is not None:
            return np.asarray([self._scores(row) for row in X])
        k = len(self.classes)
        out = np.full((X.shape[0], k), 1.0 / k)
        preds = self.predict(X)
        for i, p in enumerate(preds):
            out[i, self.classes.index(int(p))] += 0.5
        return out


class TestHoldout:
    def test_exact_66_34(self):
        train, test = holdout_split(100, SplitSpec(seed=3))
        assert len(train) == 66 and len(test) == 34

    def test_ceiling_rounding(self):
        train, test = holdout_split(101, SplitSpec(seed=3))
        assert len(train) == math.ceil(0.66 * 101) == 67
        assert len(test) == 34

    def test_disjoint_exhaustive(self):
        train, test = holdout_split(57, SplitSpec(seed=1))
        combined = np.sort(np.concatenate([train, test]))
        assert np.array_equal(combined, np.arange(57))

    def test_stratified_keeps_exact_total(self):
        y = np.array([0] * 61 + [1] * 39)
        train, test = holdout_split(100, SplitSpec(seed=2, stratified=True), y)
        assert len(train) == 66
        # class mix preserved within one instance of the exact fraction
        train_pos = int((y[train] == 1).sum())
        assert abs(train_pos - 0.66 * 39) <= 1

    def test_determinism(self):
        a = holdout_split(50, SplitSpec(seed=9))
        b = holdout_split(50, SplitSpec(seed=9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_stratified_golden_indices(self):
        # recorded before the stratified split was shared with the tree
        # inducers; the class sizes force largest-remainder top-ups
        y = np.array([2, 0, 1, 1, 0, 2, 2, 1, 0, 0, 1, 2, 2, 2, 0, 1, 1, 0, 2, 1, 0, 0, 2, 1, 1, 3, 3])
        train, test = holdout_split(y.size, SplitSpec(seed=7, stratified=True), y)
        assert train.tolist() == [1, 2, 5, 7, 8, 10, 11, 12, 14, 18, 19, 20, 21, 22, 23, 24, 25, 26]
        assert test.tolist() == [0, 3, 4, 6, 9, 13, 15, 16, 17]


class TestCvFolds:
    def test_hundred_into_ten_folds_of_ten(self):
        y = np.array([0] * 55 + [1] * 45)
        folds = cv_folds(100, SplitSpec(mode="cross_validation", folds=10, seed=1, stratified=True), y)
        assert [len(f) for f in folds] == [10] * 10

    def test_each_instance_exactly_once(self):
        folds = cv_folds(103, SplitSpec(mode="cross_validation", folds=10, seed=4))
        combined = np.sort(np.concatenate(folds))
        assert np.array_equal(combined, np.arange(103))

    def test_stratified_within_one_per_class(self):
        y = np.array([0] * 60 + [1] * 40)
        folds = cv_folds(100, SplitSpec(mode="cross_validation", folds=10, seed=5, stratified=True), y)
        for fold in folds:
            zeros = int((y[fold] == 0).sum())
            ones = int((y[fold] == 1).sum())
            assert abs(zeros - 6) <= 1 and abs(ones - 4) <= 1

    def test_small_class_degrades_with_warning(self, caplog):
        y = np.array([0] * 97 + [1] * 3)
        with caplog.at_level("WARNING"):
            folds = cv_folds(100, SplitSpec(mode="cross_validation", folds=10, seed=6, stratified=True), y)
        assert caplog.messages == [
            "classes [1] have fewer instances than 10 folds; stratification degrades to global"
        ]
        assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(100))

    def test_split_dispatch(self):
        partitions = split(40, SplitSpec(mode="cross_validation", folds=4, seed=7))
        assert len(partitions) == 4
        for train, test in partitions:
            assert np.intersect1d(train, test).size == 0
            assert len(train) + len(test) == 40


class TestConfusionMatrix:
    def test_perfect_agreement(self):
        m = ConfusionMatrix((0, 1), np.array([[50, 0], [0, 50]]))
        assert m.percent_correct == 100.0
        assert m.kappa == 1.0

    def test_chance_agreement(self):
        m = ConfusionMatrix((0, 1), np.array([[25, 25], [25, 25]]))
        assert m.percent_correct == 50.0
        assert m.kappa == 0.0

    def test_kappa_formula(self):
        m = ConfusionMatrix((0, 1), np.array([[40, 10], [20, 30]]))
        assert m.percent_correct == pytest.approx(70.0)
        assert m.kappa == pytest.approx(0.4)

    def test_percent_recomputable(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 3, 200)
        y_pred = rng.integers(0, 3, 200)
        m = ConfusionMatrix.from_predictions(y_true, y_pred)
        assert m.percent_correct == pytest.approx(100.0 * (y_true == y_pred).mean())
        assert m.total == 200

    def test_counts_match_row_loop_in_roster_order(self):
        rng = np.random.default_rng(2)
        roster = (7, 2, 5, 3)
        y_true = rng.choice(roster, 300)
        y_pred = rng.choice(roster, 300)
        expected = np.zeros((4, 4), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            expected[roster.index(t), roster.index(p)] += 1
        m = ConfusionMatrix.from_predictions(y_true, y_pred, roster)
        assert np.array_equal(m.counts, expected)
        with pytest.raises(ValueError):
            ConfusionMatrix.from_predictions(np.array([9]), np.array([2]), roster)


class TestRoc:
    def test_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.7, 0.2, 0.1])
        positives = np.array([True, True, True, False, False])
        assert auc_from_scores(scores, positives) == 1.0

    def test_all_ties_half(self):
        scores = np.ones(10)
        positives = np.array([True] * 5 + [False] * 5)
        assert auc_from_scores(scores, positives) == 0.5

    def test_ties_match_average_rank_oracle(self):
        def oracle(scores, positives):
            # O(n^2) average ranks: 1 + #smaller + (#equal - 1) / 2
            ranks = [
                1 + sum(t < s for t in scores) + (sum(t == s for t in scores) - 1) / 2
                for s in scores
            ]
            n_pos = int(positives.sum())
            u = sum(r for r, p in zip(ranks, positives) if p) - n_pos * (n_pos + 1) / 2
            return u / (n_pos * (positives.size - n_pos))

        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            scores = rng.integers(0, 5, n) / 4.0  # few distinct values: many ties
            positives = rng.random(n) < 0.5
            positives[:2] = (True, False)
            assert auc_from_scores(scores, positives) == pytest.approx(
                oracle(scores, positives), abs=1e-12
            )

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(2)
        scores = rng.random(10_000)
        positives = np.arange(10_000) % 2 == 0
        assert abs(auc_from_scores(scores, positives) - 0.5) < 0.02

    def test_weighted_roc_excludes_absent_classes(self):
        scores = np.array([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.7, 0.3, 0.0], [0.1, 0.9, 0.0]])
        y = np.array([0, 1, 0, 1])
        roc, excluded = weighted_roc(scores, y, (0, 1, 2))
        assert excluded == (2,)
        assert roc == 1.0


class TestEvaluate:
    def test_report_fields(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = StubModel((0, 1), lambda row: 0 if row[0] <= 1.5 else 1, number_of_rules=2)
        report = evaluate(model, X, y)
        assert report.percent_correct == 100.0
        assert report.kappa == 1.0
        assert report.number_of_rules == 2
        assert report.weighted_roc_area == 1.0

    def test_empty_test_set_rejected(self):
        model = StubModel((0,), lambda row: 0)
        with pytest.raises(ValueError):
            evaluate(model, np.empty((0, 1)), np.empty(0, dtype=int))


class TestCrossValidate:
    def test_constant_inducer_on_balanced_data(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 2))
        y = np.arange(200) % 2

        def inducer(X_train, y_train):
            return StubModel((0, 1), lambda row: 0)

        spec = SplitSpec(mode="cross_validation", folds=10, seed=1, stratified=True)
        result = cross_validate(inducer, X, y, spec)
        assert result.pooled.percent_correct == pytest.approx(50.0)
        assert result.pooled.kappa == pytest.approx(0.0)
        assert len(result.fold_reports) == 10
        assert result.pooled.matrix.total == 200  # every instance tested once

    def test_rerun_identical(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(120, 2))
        y = (X[:, 0] > 0).astype(int)

        def inducer(X_train, y_train):
            majority = int(np.argmax(np.bincount(y_train)))
            return StubModel((0, 1), lambda row, m=majority: m)

        spec = SplitSpec(mode="cross_validation", folds=6, seed=2)
        a = cross_validate(inducer, X, y, spec)
        b = cross_validate(inducer, X, y, spec)
        assert a.pooled.percent_correct == b.pooled.percent_correct
        assert a.pooled.kappa == b.pooled.kappa
        assert np.array_equal(a.pooled.matrix.counts, b.pooled.matrix.counts)

    def test_requires_cv_spec(self):
        with pytest.raises(ValueError):
            cross_validate(lambda X, y: None, np.zeros((10, 1)), np.zeros(10), SplitSpec())


class TestClassesToClusters:
    def fit(self, X, k, schema):
        return clustering.kmeans_fit(X, schema, k, seed=0)

    def test_identity_clusters(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1]])
        model = self.fit(X, 2, numeric_schema(1))
        ref = clustering.assign(model, X)
        rate, mapping = classes_to_clusters(model, X, ref)
        assert rate == 0.0
        assert set(mapping.values()) == set(ref.tolist())

    def test_majority_mapping_counts_errors(self):
        X = np.concatenate([np.linspace(0, 0.5, 10), [8.0, 8.2]]).reshape(-1, 1)
        model = self.fit(X, 2, numeric_schema(1))
        assigned = clustering.assign(model, X)
        ref = np.array([0] * 9 + [1] + [1, 1])  # one dissenter in the big cluster
        rate, mapping = classes_to_clusters(model, X, ref)
        assert rate == pytest.approx(1 / 12)

    def test_tie_goes_to_lowest_label(self):
        X = np.array([[0.0], [0.1], [0.2], [0.3]])
        model = self.fit(X, 1, numeric_schema(1))
        ref = np.array([5, 5, 3, 3])
        rate, mapping = classes_to_clusters(model, X, ref)
        assert mapping[0] == 3
        assert rate == 0.5


class TestReportRows:
    def test_csv_shape(self):
        m = ConfusionMatrix((0, 1), np.array([[40, 10], [20, 30]]))
        report = evaluation.EvaluationReport(
            matrix=m,
            percent_correct=m.percent_correct,
            kappa=m.kappa,
            weighted_roc_area=0.75,
            number_of_rules=4,
            per_class=m.per_class(),
        )
        row = evaluation.report_row(
            report,
            algorithm="part",
            attribute_kind="numeric",
            min_instances=100,
            rep_flag="off",
            split_mode="holdout",
        )
        buf = io.StringIO()
        write_report_rows(buf, [row])
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(evaluation.GRID_COLUMNS)
        assert lines[1].startswith("part,numeric,100,off,holdout,4,70.0,")
