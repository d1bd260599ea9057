"""Model evaluation: splits, confusion matrices, kappa and ROC.

A classifier here is anything with ``predict(X)``, ``class_scores(X)``,
``classes`` and ``number_of_rules`` (rule sets and decision trees both
qualify).  Cross-validation pools the per-fold confusion matrices and
scores, matching reports that quote a single number per configuration.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import IO, Callable, Optional, Sequence

import numpy as np

from .parallel import pmap

log = logging.getLogger(__name__)

HOLDOUT = "holdout"
CROSS_VALIDATION = "cross_validation"


@dataclass(frozen=True)
class SplitSpec:
    mode: str = HOLDOUT
    train_fraction: float = 0.66
    folds: int = 10
    seed: int = 1
    stratified: bool = False

    def __post_init__(self) -> None:
        if self.mode not in (HOLDOUT, CROSS_VALIDATION):
            raise ValueError(f"unknown split mode {self.mode!r}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def apportion(exact: Sequence[float], total: int) -> list[int]:
    """Largest-remainder allocation: floor each share of ``exact``, then give
    one more to the largest remainders (lowest index on ties) until the
    shares sum to ``total``, if the floors fall short of it."""
    shares = [math.floor(e) for e in exact]
    short = max(total - sum(shares), 0)
    for i in sorted(range(len(exact)), key=lambda i: (-(exact[i] - shares[i]), i))[:short]:
        shares[i] += 1
    return shares


def _stratified_take(
    y: np.ndarray, fraction: float, target: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded stratified split into sorted (taken, rest) index arrays.

    Each class is shuffled, in class order, and gives floor(fraction * n_c)
    rows; then classes ordered by largest fractional remainder (lowest class
    on ties) give one more row each until ``target`` rows are taken.
    """
    classes, inverse = np.unique(y, return_inverse=True)
    members = [rng.permutation(np.flatnonzero(inverse == c)) for c in range(classes.size)]
    take = apportion([fraction * m.size for m in members], target)
    empty = [np.empty(0, dtype=np.int64)]
    taken = np.concatenate([m[:t] for m, t in zip(members, take)] or empty)
    rest = np.concatenate([m[t:] for m, t in zip(members, take)] or empty)
    return np.sort(taken), np.sort(rest)


def holdout_split(
    n: int, spec: SplitSpec, y: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle, then the first ceil(train_fraction * n) rows train.

    With ``stratified`` the per-class allocation follows largest remainders
    so the overall train size stays exactly ceil(train_fraction * n).
    """
    if n < 2:
        raise ValueError("need at least 2 instances to split")
    rng = np.random.default_rng(spec.seed)
    target_train = math.ceil(spec.train_fraction * n)
    if spec.stratified and y is not None:
        return _stratified_take(y, spec.train_fraction, target_train, rng)
    perm = rng.permutation(n)
    return np.sort(perm[:target_train]), np.sort(perm[target_train:])


def cv_folds(n: int, spec: SplitSpec, y: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """Fold membership (test indices per fold); each instance appears once.

    Stratified dealing walks the classes with a single rotating cursor, so
    per-class fold counts differ by at most one and so do the fold sizes.
    Classes smaller than the fold count degrade stratification to a plain
    shuffle, with a warning.
    """
    if n < spec.folds:
        raise ValueError(f"need at least {spec.folds} instances for {spec.folds}-fold CV")
    rng = np.random.default_rng(spec.seed)
    stratified = spec.stratified and y is not None
    if stratified:
        classes, inverse = np.unique(y, return_inverse=True)
        counts = np.bincount(inverse)
        if (counts < spec.folds).any():
            small = classes[counts < spec.folds].tolist()
            log.warning(
                "classes %s have fewer instances than %d folds; stratification degrades to global",
                small,
                spec.folds,
            )
            stratified = False
    folds: list[list[int]] = [[] for _ in range(spec.folds)]
    if stratified:
        cursor = 0
        for c in range(classes.size):
            for i in rng.permutation(np.flatnonzero(inverse == c)):
                folds[cursor % spec.folds].append(int(i))
                cursor += 1
    else:
        for pos, i in enumerate(rng.permutation(n)):
            folds[pos % spec.folds].append(int(i))
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


def split(
    n: int, spec: SplitSpec, y: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray] | list[tuple[np.ndarray, np.ndarray]]:
    """Dispatch to holdout (train, test) or CV [(train, test) per fold]."""
    if spec.mode == HOLDOUT:
        return holdout_split(n, spec, y)
    folds = cv_folds(n, spec, y)
    out = []
    for f in range(spec.folds):
        test = folds[f]
        train = np.concatenate([folds[g] for g in range(spec.folds) if g != f])
        out.append((np.sort(train), test))
    return out


@dataclass
class ConfusionMatrix:
    classes: tuple[int, ...]
    counts: np.ndarray  # [actual, predicted]

    @staticmethod
    def from_predictions(
        y_true: np.ndarray, y_pred: np.ndarray, classes: Optional[Sequence[int]] = None
    ) -> "ConfusionMatrix":
        if classes is None:
            classes = np.unique(np.concatenate([y_true, y_pred])).tolist()
        classes = tuple(int(c) for c in classes)
        k = len(classes)
        labels, ids = np.unique(np.concatenate([classes, y_true, y_pred]), return_inverse=True)
        pos = np.full(labels.size, -1)
        pos[ids[:k]] = np.arange(k)
        pos_true, pos_pred = pos[ids[k:]].reshape(2, -1)
        if (pos_true < 0).any() or (pos_pred < 0).any():
            raise ValueError("a label is not in the class roster")
        counts = np.bincount(pos_true * k + pos_pred, minlength=k * k).reshape(k, k)
        return ConfusionMatrix(classes, counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def percent_correct(self) -> float:
        return 100.0 * float(np.trace(self.counts)) / self.total

    @property
    def kappa(self) -> float:
        total = self.total
        p_o = float(np.trace(self.counts)) / total
        row = self.counts.sum(axis=1)
        col = self.counts.sum(axis=0)
        p_e = float((row * col).sum()) / (total * total)
        if p_e >= 1.0:
            return 1.0 if p_o >= 1.0 else 0.0
        return (p_o - p_e) / (1.0 - p_e)

    def per_class(self) -> dict[int, dict[str, float]]:
        out = {}
        row = self.counts.sum(axis=1)
        col = self.counts.sum(axis=0)
        for i, c in enumerate(self.classes):
            tp = float(self.counts[i, i])
            out[c] = {
                "precision": tp / col[i] if col[i] else 0.0,
                "recall": tp / row[i] if row[i] else 0.0,
                "support": int(row[i]),
            }
        return out

    def to_json(self) -> dict:
        return {"classes": list(self.classes), "counts": self.counts.tolist()}


@dataclass
class EvaluationReport:
    matrix: ConfusionMatrix
    percent_correct: float
    kappa: float
    weighted_roc_area: float
    number_of_rules: int
    per_class: dict[int, dict[str, float]]
    roc_excluded_classes: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "percent_correct": self.percent_correct,
            "kappa": self.kappa,
            "weighted_roc_area": self.weighted_roc_area,
            "number_of_rules": self.number_of_rules,
            "per_class": {str(k): v for k, v in self.per_class.items()},
            "roc_excluded_classes": list(self.roc_excluded_classes),
            "matrix": self.matrix.to_json(),
        }


def auc_from_scores(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-based one-vs-rest AUC; tied scores credit half."""
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positives and negatives")
    # average 1-based rank of each group of tied scores
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], ordered.size]
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    u = float(ranks[positives].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def weighted_roc(
    scores: np.ndarray, y_true: np.ndarray, classes: Sequence[int]
) -> tuple[float, tuple[int, ...]]:
    """Prevalence-weighted one-vs-rest ROC area.

    Classes missing from the test set (or filling it entirely) have no
    defined ROC and are excluded from the weighted average; they are
    reported so the omission is visible.
    """
    total = 0.0
    weight = 0.0
    excluded = []
    for i, c in enumerate(classes):
        positives = y_true == c
        n_pos = int(positives.sum())
        if n_pos == 0 or n_pos == positives.size:
            excluded.append(int(c))
            continue
        auc = auc_from_scores(scores[:, i], positives)
        total += n_pos * auc
        weight += n_pos
    if weight == 0:
        return math.nan, tuple(excluded)
    return total / weight, tuple(excluded)


def _report(classes, y_true, y_pred, scores, number_of_rules: int) -> EvaluationReport:
    """Confusion-matrix metrics plus weighted ROC.  Test classes unknown to
    the model are added to the matrix roster (they can only be errors)."""
    roster = list(classes)
    for c in np.unique(y_true):
        if int(c) not in roster:
            roster.append(int(c))
    matrix = ConfusionMatrix.from_predictions(y_true, y_pred, roster)
    roc, excluded = weighted_roc(scores, y_true, classes)
    return EvaluationReport(
        matrix=matrix,
        percent_correct=matrix.percent_correct,
        kappa=matrix.kappa,
        weighted_roc_area=roc,
        number_of_rules=number_of_rules,
        per_class=matrix.per_class(),
        roc_excluded_classes=excluded,
    )


def evaluate(model, X_test: np.ndarray, y_test: np.ndarray) -> EvaluationReport:
    """Confusion-matrix metrics plus weighted ROC from the model's scores."""
    if X_test.shape[0] == 0:
        raise ValueError("empty test set")
    return _report(
        model.classes,
        y_test,
        model.predict(X_test),
        model.class_scores(X_test),
        model.number_of_rules,
    )


@dataclass
class CrossValidationReport:
    pooled: EvaluationReport
    fold_reports: list[EvaluationReport]


def cross_validate(
    inducer: Callable[[np.ndarray, np.ndarray], object],
    X: np.ndarray,
    y: np.ndarray,
    spec: SplitSpec,
) -> CrossValidationReport:
    """Per-fold train/evaluate with metrics computed on the pooled matrix.

    The reported rule count comes from a model induced on the full data,
    the convention behind single-number experiment tables.  That induction
    and the folds run through ``pmap``; the full-data one, the largest, is
    handed out first.
    """
    if spec.mode != CROSS_VALIDATION:
        raise ValueError("cross_validate requires a cross_validation split spec")
    partitions = split(X.shape[0], spec, y)

    def run(partition):
        if partition is None:
            return inducer(X, y).number_of_rules
        train_idx, test_idx = partition
        model = inducer(X[train_idx], y[train_idx])
        X_test = X[test_idx]
        return (evaluate(model, X_test, y[test_idx]), tuple(model.classes),
                model.predict(X_test), model.class_scores(X_test))

    number_of_rules, *folds = pmap(run, [None, *partitions])
    fold_reports, rosters, pooled_pred, pooled_scores = zip(*folds)
    if len(set(rosters)) > 1:
        raise ValueError("inducer produced inconsistent class rosters across folds")
    pooled = _report(
        rosters[0],
        np.concatenate([y[test_idx] for _, test_idx in partitions]),
        np.concatenate(pooled_pred),
        np.vstack(pooled_scores),
        number_of_rules,
    )
    return CrossValidationReport(pooled, list(fold_reports))


def evaluate_inducer(
    inducer: Callable[[np.ndarray, np.ndarray], object],
    X: np.ndarray,
    y: np.ndarray,
    spec: SplitSpec,
) -> EvaluationReport:
    """The report of ``spec``'s protocol: the test rows of a holdout split,
    or the pooled report of cross-validation."""
    if spec.mode == HOLDOUT:
        train_idx, test_idx = holdout_split(X.shape[0], spec, y)
        return evaluate(inducer(X[train_idx], y[train_idx]), X[test_idx], y[test_idx])
    return cross_validate(inducer, X, y, spec).pooled


GRID_COLUMNS = (
    "algorithm",
    "attribute_kind",
    "min_instances",
    "rep_flag",
    "split_mode",
    "number_of_rules",
    "percent_correct",
    "kappa",
    "roc_area",
)


def report_row(
    report: EvaluationReport,
    *,
    algorithm: str,
    attribute_kind: str,
    min_instances: int | str,
    rep_flag: str,
    split_mode: str,
) -> dict:
    return {
        "algorithm": algorithm,
        "attribute_kind": attribute_kind,
        "min_instances": min_instances,
        "rep_flag": rep_flag,
        "split_mode": split_mode,
        "number_of_rules": report.number_of_rules,
        "percent_correct": report.percent_correct,
        "kappa": report.kappa,
        "roc_area": report.weighted_roc_area,
    }


def write_report_rows(dest: IO[str], rows: Sequence[dict]) -> None:
    writer = csv.DictWriter(dest, fieldnames=GRID_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        out = dict(row)
        for key in ("percent_correct", "kappa", "roc_area"):
            if isinstance(out.get(key), float):
                out[key] = repr(out[key])
        writer.writerow(out)
