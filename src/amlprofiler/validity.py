"""Cluster-count selection metrics and the seeded k-sweep.

Five measures drive the choice of k: SSE and the silhouette coefficient,
the variance ratio criterion, and two run-to-run stability scores derived
from the Rand index and the Van Dongen metric (computed over all pairs of
repeated seeded fits; the paper-style protocol has no ground truth to
compare against).  All of them are reported per k so disagreements between
metrics stay visible.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Optional, Sequence

import numpy as np

from . import clustering
from .clustering import EUCLIDEAN, ClusterModel, Normalization
from .profiling import AttributeSchema

log = logging.getLogger(__name__)

DEFAULT_SILHOUETTE_SAMPLE = 2000


def silhouette(
    X: np.ndarray,
    labels: np.ndarray,
    schema: AttributeSchema,
    *,
    kind: str = EUCLIDEAN,
    sample_size: int = DEFAULT_SILHOUETTE_SAMPLE,
    seed: int = 0,
    pairwise: Optional[np.ndarray] = None,
) -> float:
    """Mean silhouette s(i) = (b - a) / max(a, b) over (sampled) points.

    a is the mean distance to the point's own cluster (excluding itself),
    b the smallest mean distance to any other cluster.  Points alone in
    their cluster contribute 0.  Above ``sample_size`` points, a seeded
    subsample is scored instead (exact when sample_size >= n).
    """
    labels = np.asarray(labels)
    n = X.shape[0]
    if n != labels.shape[0]:
        raise ValueError("labels length does not match profiles")
    if np.unique(labels).size < 2:
        raise ValueError("silhouette is undefined for a single cluster")
    if sample_size < n:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=sample_size, replace=False))
        X = X[idx]
        labels = labels[idx]
        n = sample_size
        pairwise = None
        if np.unique(labels).size < 2:
            raise ValueError("sample collapsed to a single cluster; enlarge sample_size")
    if pairwise is None:
        pairwise = clustering.pairwise_distances(X, kind, schema)

    uniq, member = np.unique(labels, return_inverse=True)
    sizes = np.bincount(member)
    # Sum of distances from every point to each cluster, one product for all.
    sums = pairwise @ np.eye(uniq.size)[member]
    rows = np.arange(n)
    own = sizes[member]
    a = sums[rows, member] / np.maximum(own - 1, 1)
    means = sums / sizes
    means[rows, member] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    # convention: points alone in their cluster contribute 0
    s = np.where((own > 1) & (denom > 0), (b - a) / np.where(denom > 0, denom, 1.0), 0.0)
    return float(s.sum()) / n


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

    numeric_mask = schema.numeric_mask()
    norm = Normalization.fit(X, numeric_mask)
    Xn = norm.apply(X)
    n = X.shape[0]
    if silhouette_sample < n:
        rng = np.random.default_rng(base_seed)
        sample_idx = np.sort(rng.choice(n, size=silhouette_sample, replace=False))
    else:
        sample_idx = np.arange(n)
    pairwise_sample = clustering.pairwise_distances(Xn[sample_idx], kind, schema)

    reports = []
    for k in ks:
        sses, sils, vrcs = [], [], []
        run_labels = []
        for r in range(runs):
            model = clustering.kmeans_fit(
                X, schema, k, kind=kind, seed=base_seed + r, max_iter=max_iter
            )
            labels = clustering.assign(model, X)
            run_labels.append(labels)
            sses.append(model.sse)
            sils.append(
                silhouette(
                    Xn[sample_idx],
                    labels[sample_idx],
                    schema,
                    kind=kind,
                    sample_size=len(sample_idx),
                    pairwise=pairwise_sample,
                )
            )
            vrcs.append(vrc(Xn, labels, schema))
        rands, vds = [], []
        for i, j in combinations(range(runs), 2):
            rand, vd = partition_agreement(run_labels[i], run_labels[j])
            rands.append(rand)
            vds.append(vd)
        reports.append(
            ValidityReport(
                k=k,
                runs=runs,
                sse_values=tuple(sses),
                silhouette_values=tuple(sils),
                vrc_values=tuple(vrcs),
                rand_pairs=tuple(rands),
                van_dongen_pairs=tuple(vds),
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
