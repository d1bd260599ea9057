"""Cluster-count selection metrics and the seeded k-sweep.

Five measures drive the choice of k: SSE and the silhouette coefficient,
the variance ratio criterion, and two run-to-run stability scores derived
from the Rand index and the Van Dongen metric (computed over all pairs of
repeated seeded fits; the paper-style protocol has no ground truth to
compare against).  All of them are reported per k so disagreements between
metrics stay visible.

``k_sweep`` runs in two phases: the seeded fits, each with its VRC, on
``clustering.seeded_fits``'s workers, then the silhouettes of all fits in
one blocked pass (``silhouette`` takes a stack of labelings), so that no
process holds an n x n distance matrix.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Sequence

import numpy as np

from . import clustering
from .clustering import EUCLIDEAN, ClusterModel, Normalization
from .profiling import AttributeSchema

log = logging.getLogger(__name__)

DEFAULT_SILHOUETTE_SAMPLE = 2000
SILHOUETTE_BLOCK = 64  # rows of distances per product


def silhouette(
    X: np.ndarray,
    labels: np.ndarray,
    schema: AttributeSchema,
    *,
    kind: str = EUCLIDEAN,
    sample_size: int = DEFAULT_SILHOUETTE_SAMPLE,
    seed: int = 0,
) -> float | list[float]:
    """Mean silhouette s(i) = (b - a) / max(a, b) over (sampled) points, of
    one labeling, or as a list of each row of a (labelings x n) stack.

    a is the mean distance to the point's own cluster (excluding itself),
    b the smallest mean distance to any other cluster.  Points alone in
    their cluster contribute 0.  Above ``sample_size`` points, a seeded
    subsample is scored instead (exact when sample_size >= n).

    All labelings are scored in one pass over blocks of ``SILHOUETTE_BLOCK``
    rows of distances: each block times the one-hot matrix of every
    labeling's clusters gives the block's summed distance to each cluster.
    So no n x n matrix is held; memory is the one-hot matrix (n x the
    labelings' summed cluster counts), a block, and the s(i) of every point
    and labeling.
    """
    stack = np.atleast_2d(labels)
    n = X.shape[0]
    if stack.shape[1] != n:
        raise ValueError("labels length does not match profiles")
    if any(np.unique(row).size < 2 for row in stack):
        raise ValueError("silhouette is undefined for a single cluster")
    if sample_size < n:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=sample_size, replace=False))
        X = X[idx]
        stack = stack[:, idx]
        n = sample_size

    # column[l, i]: the one-hot column of point i's cluster under labeling l
    column = np.empty(stack.shape, dtype=np.int64)
    sizes, starts = [], [0]
    for row, col in zip(stack, column):
        member = np.unique(row, return_inverse=True)[1]
        sizes.append(np.bincount(member))
        if sizes[-1].size < 2:
            raise ValueError("sample collapsed to a single cluster; enlarge sample_size")
        col[:] = starts[-1] + member
        starts.append(starts[-1] + sizes[-1].size)
    sizes = np.concatenate(sizes)
    starts = np.array(starts[:-1])
    # Zero columns up to a multiple of 16 keep every labeling off the
    # product's last columns, which OpenBLAS's edge kernels may sum in
    # another order than one product per labeling does.
    one_hot = np.zeros((n, -(-sizes.size // 16) * 16))
    for col in column:
        one_hot[np.arange(n), col] = 1.0
    s = np.empty(column.shape)
    for lo in range(0, n, SILHOUETTE_BLOCK):
        block = slice(lo, min(lo + SILHOUETTE_BLOCK, n))
        sums = (clustering.pairwise_distances(X, kind, schema, block) @ one_hot)[:, : sizes.size]
        points = np.arange(sums.shape[0])
        cols = column[:, block]
        own = sizes[cols]
        a = sums[points, cols] / np.maximum(own - 1, 1)
        means = sums / sizes
        means[points, cols] = np.inf
        b = np.minimum.reduceat(means, starts, axis=1).T
        denom = np.maximum(a, b)
        # convention: points alone in their cluster contribute 0
        s[:, block] = np.where((own > 1) & (denom > 0), (b - a) / np.where(denom > 0, denom, 1.0),
                               0.0)
    means = [float(row.sum()) / n for row in s]
    return means if np.ndim(labels) == 2 else means[0]


def sse(X: np.ndarray, model: ClusterModel) -> float:
    """Sum of squared distances to the assigned centroid (model's metric)."""
    Xn = model.normalization.apply(X)
    nominal_cols = np.flatnonzero(~model.schema.numeric_mask())
    labels = clustering.assign(model, X)
    total = 0.0
    for j in range(model.k):
        members = Xn[labels == j]
        if members.size:
            d = clustering.distances_to(members, model.centroids[j], model.distance_kind, nominal_cols)
            total += float(np.sum(d**2))
    return total


def vrc(X: np.ndarray, labels: np.ndarray, schema: AttributeSchema) -> float:
    """Variance ratio criterion [B/(k-1)] / [W/(n-k)].

    Between- and within-cluster dispersions use squared Euclidean distance
    with the 0/1 nominal metric; numeric values are expected in normalized
    space.  W = 0 (every point equals its centroid) returns +inf as a
    perfect-separation sentinel.
    """
    labels = np.asarray(labels)
    n = X.shape[0]
    uniq = np.unique(labels)
    k = uniq.size
    if k < 2 or k >= n:
        raise ValueError(f"VRC needs 2 <= k <= n-1, got k={k}, n={n}")
    numeric_mask = schema.numeric_mask()
    nominal_cols = np.flatnonzero(~numeric_mask)
    grand = clustering.centroid(X, numeric_mask)
    between = 0.0
    within = 0.0
    for c in uniq:
        members = X[labels == c]
        centroid = clustering.centroid(members, numeric_mask)
        d_between = clustering.distances_to(centroid[None, :], grand, EUCLIDEAN, nominal_cols)
        between += members.shape[0] * float(d_between[0] ** 2)
        d_within = clustering.distances_to(members, centroid, EUCLIDEAN, nominal_cols)
        within += float(np.sum(d_within**2))
    if within == 0.0:
        return math.inf
    return (between / (k - 1)) / (within / (n - k))


def partition_agreement(labels_a: np.ndarray, labels_b: np.ndarray) -> tuple[float, float]:
    """Rand index and normalized Van Dongen distance between two labelings.

    Rand counts instance pairs grouped consistently in both partitions.  The
    Van Dongen metric is 2n minus the summed row and column maxima of the
    contingency table, normalized by 2n (0 means identical partitions).
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("labelings differ in length")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least two instances")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    n_a = ai.max() + 1
    n_b = bi.max() + 1
    table = np.zeros((n_a, n_b), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    pairs = n * (n - 1) // 2
    same_a = int((np.bincount(ai) * (np.bincount(ai) - 1) // 2).sum())
    same_b = int((np.bincount(bi) * (np.bincount(bi) - 1) // 2).sum())
    same_both = int((table * (table - 1) // 2).sum())
    # agreements: together in both, or apart in both
    rand = (pairs + 2 * same_both - same_a - same_b) / pairs

    vd_raw = 2 * n - int(table.max(axis=1).sum()) - int(table.max(axis=0).sum())
    return rand, vd_raw / (2 * n)


@dataclass
class ValidityReport:
    k: int
    runs: int
    sse_values: tuple[float, ...]
    silhouette_values: tuple[float, ...]
    vrc_values: tuple[float, ...]
    rand_pairs: tuple[float, ...]
    van_dongen_pairs: tuple[float, ...]  # normalized distances per run pair

    @property
    def sse_mean(self) -> float:
        return float(np.mean(self.sse_values))

    @property
    def silhouette_mean(self) -> float:
        return float(np.mean(self.silhouette_values))

    @property
    def vrc_mean(self) -> float:
        return float(np.mean(self.vrc_values))

    @property
    def rand_stability_mean(self) -> float:
        return float(np.mean(self.rand_pairs))

    @property
    def van_dongen_stability_mean(self) -> float:
        return float(np.mean([1.0 - v for v in self.van_dongen_pairs]))


@dataclass
class SweepResult:
    reports: list[ValidityReport]
    recommended: dict[str, int]
    base_seed: int
    kind: str


def k_sweep(
    X: np.ndarray,
    schema: AttributeSchema,
    k_range: Sequence[int],
    *,
    runs: int = 10,
    base_seed: int = 1,
    kind: str = EUCLIDEAN,
    silhouette_sample: int = DEFAULT_SILHOUETTE_SAMPLE,
    max_iter: int = 500,
) -> SweepResult:
    """Fit ``runs`` seeded models per k and report all validity metrics.

    Stability metrics (Rand, Van Dongen) average over all run pairs within
    each k.  The recommendation is per metric: argmax for silhouette, VRC
    and the stabilities, the point of maximum positive second difference
    (the elbow) for SSE.
    """
    ks = sorted(set(int(k) for k in k_range))
    if runs < 2:
        raise ValueError("stability metrics need runs >= 2")
    if min(ks) < 2 or max(ks) > X.shape[0] - 1:
        raise ValueError(f"k range must lie within [2, n-1], got {ks[0]}..{ks[-1]}")

    Xn = Normalization.fit(X, schema.numeric_mask()).apply(X)
    sses, labels, vrcs = zip(*clustering.seeded_fits(
        X, schema, ks, runs=runs, kind=kind, base_seed=base_seed, max_iter=max_iter,
        then=lambda model: (model.sse, model.labels, vrc(Xn, model.labels, schema)),
    ))
    labels = np.array(labels)  # (k, run) order, one row per fit
    sils = silhouette(Xn, labels, schema, kind=kind, sample_size=silhouette_sample,
                      seed=base_seed)

    reports = []
    for i, k in enumerate(ks):
        fit = slice(i * runs, (i + 1) * runs)
        rands, vds = zip(*(partition_agreement(a, b) for a, b in combinations(labels[fit], 2)))
        reports.append(
            ValidityReport(
                k=k,
                runs=runs,
                sse_values=sses[fit],
                silhouette_values=tuple(sils[fit]),
                vrc_values=vrcs[fit],
                rand_pairs=rands,
                van_dongen_pairs=vds,
            )
        )

    recommended = {
        "silhouette": _argmax_k(reports, lambda r: r.silhouette_mean),
        "vrc": _argmax_k(reports, lambda r: r.vrc_mean),
        "rand_stability": _argmax_k(reports, lambda r: r.rand_stability_mean),
        "van_dongen_stability": _argmax_k(reports, lambda r: r.van_dongen_stability_mean),
        "sse_elbow": _sse_elbow(reports),
    }
    return SweepResult(reports, recommended, base_seed, kind)


def _argmax_k(reports: list[ValidityReport], score) -> int:
    best = max(reports, key=lambda r: (score(r), -r.k))
    return best.k


def _sse_elbow(reports: list[ValidityReport]) -> int:
    """Elbow formalized as the k with maximum positive second difference of
    mean SSE; degenerates to the smallest k when the sweep has < 3 points."""
    if len(reports) < 3:
        return reports[0].k
    values = [r.sse_mean for r in reports]
    best_k, best_curv = reports[0].k, -math.inf
    for i in range(1, len(reports) - 1):
        curv = values[i - 1] - 2 * values[i] + values[i + 1]
        if curv > best_curv:
            best_curv, best_k = curv, reports[i].k
    return best_k


def write_sweep_csv(dest: IO[str], result: SweepResult) -> None:
    """Long-form CSV: one row per (k, run) plus one summary row per k."""
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(
        [
            "k",
            "row_type",
            "run",
            "sse",
            "silhouette",
            "vrc",
            "rand_stability",
            "van_dongen_stability",
        ]
    )
    for rep in result.reports:
        for r in range(rep.runs):
            writer.writerow(
                [
                    rep.k,
                    "run",
                    r,
                    repr(rep.sse_values[r]),
                    repr(rep.silhouette_values[r]),
                    repr(rep.vrc_values[r]),
                    "",
                    "",
                ]
            )
        writer.writerow(
            [
                rep.k,
                "summary",
                "",
                repr(rep.sse_mean),
                repr(rep.silhouette_mean),
                repr(rep.vrc_mean),
                repr(rep.rand_stability_mean),
                repr(rep.van_dongen_stability_mean),
            ]
        )
