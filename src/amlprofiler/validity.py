"""Cluster-count selection metrics and the seeded k-sweep.

Five measures drive the choice of k: SSE and the silhouette coefficient,
the variance ratio criterion, and two run-to-run stability scores derived
from the Rand index and the Van Dongen metric (computed over all pairs of
repeated seeded fits; the paper-style protocol has no ground truth to
compare against).  All of them are reported per k so disagreements between
metrics stay visible.

``k_sweep`` runs in two phases: the seeded fits, each with its VRC, on
``clustering.seeded_fits``'s workers, then the silhouettes of all fits
(``silhouette`` takes a stack of labelings), each distinct partition
scored once in blocks of points on ``parallel.pmap``'s workers.  No
process holds an n x n distance matrix, and no sum that reaches
``sweep.csv`` goes through BLAS: its bytes are the same on any CPU mask
and BLAS thread count.  That fixed order rests on numpy summing a
(rows x block) array along axis 0 one row after another, which is how its
reduction loop works but not documented behaviour.
``tests/test_validity.py::test_sweep_shape_matches_fixed_order_sums``
pins it: a numpy upgrade that fails that test breaks the reproducibility
of ``sweep.csv``, not only a test.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Sequence

import numpy as np

from . import clustering, parallel
from .clustering import EUCLIDEAN, ClusterModel, Normalization
from .profiling import AttributeSchema

log = logging.getLogger(__name__)

DEFAULT_SILHOUETTE_SAMPLE = 2000
SILHOUETTE_BLOCK = 64  # most points per block of distances


def distinct_partitions(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct partitions among the rows of a (labelings x n) stack,
    each with its clusters numbered 0, 1, ... in order of first appearance,
    and the index of each labeling's partition among them."""
    renumbered = np.empty(stack.shape, dtype=np.int64)
    for row, out in zip(stack, renumbered):
        _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
        out[:] = np.argsort(np.argsort(first))[inverse]
    parts, which = np.unique(renumbered, axis=0, return_inverse=True)
    return parts, which.reshape(-1)


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

    Labelings that split the points alike are one partition, scored once.
    The points are scored in blocks of at most ``SILHOUETTE_BLOCK`` on
    ``parallel.pmap``'s workers: a block's distances to every point,
    summed per cluster one point after the other in ascending point order.
    That order is fixed, so the bits of the result do not depend on the
    CPUs, the workers or the BLAS library.  No n x n matrix is held; memory
    is a block of distances, one cluster's rows of it, and the s(i) of
    every point and partition.
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

    parts, which = distinct_partitions(stack)
    if (parts.max(axis=1) < 1).any():
        raise ValueError("sample collapsed to a single cluster; enlarge sample_size")
    sizes = [np.bincount(part) for part in parts]
    members = [[np.flatnonzero(part == c) for c in range(size.size)]
               for part, size in zip(parts, sizes)]
    # Blocks split n evenly, so none is one point wide: numpy sums a one-column
    # reduction pairwise, a wider one row after row.
    count = -(-n // SILHOUETTE_BLOCK)
    blocks = [slice(n * i // count, n * (i + 1) // count) for i in range(count)]

    def score(block: slice) -> np.ndarray:
        dists = np.ascontiguousarray(clustering.pairwise_distances(X, kind, schema, block).T)
        points = np.arange(dists.shape[1])
        s = np.empty((len(parts), points.size))
        for part, size, clusters, out in zip(parts, sizes, members, s):
            sums = np.array([dists[m].sum(axis=0) for m in clusters])
            cols = part[block]
            own = size[cols]
            a = sums[cols, points] / np.maximum(own - 1, 1)
            means = sums / size[:, None]
            means[cols, points] = np.inf
            b = means.min(axis=0)
            denom = np.maximum(a, b)
            # convention: points alone in their cluster contribute 0
            out[:] = np.where((own > 1) & (denom > 0), (b - a) / np.where(denom > 0, denom, 1.0),
                              0.0)
        return s

    s = np.concatenate(parallel.pmap(score, blocks), axis=1)
    scores = [float(row.sum()) / n for row in s]
    means = [scores[p] for p in which]
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
            d = clustering.distances(members, model.centroids[j][None, :], model.distance_kind,
                                     nominal_cols)[0]
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
        d_between = clustering.distances(centroid[None, :], grand[None, :], EUCLIDEAN, nominal_cols)
        between += members.shape[0] * float(d_between[0, 0] ** 2)
        d_within = clustering.distances(members, centroid[None, :], EUCLIDEAN, nominal_cols)[0]
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
    ai = np.unique(a, return_inverse=True)[1]
    bi = np.unique(b, return_inverse=True)[1]
    n_b = bi.max() + 1
    table = np.bincount(ai * n_b + bi, minlength=(ai.max() + 1) * n_b).reshape(-1, n_b)

    pairs = n * (n - 1) // 2
    rows, cols = table.sum(axis=1), table.sum(axis=0)
    same_a = int((rows * (rows - 1) // 2).sum())
    same_b = int((cols * (cols - 1) // 2).sum())
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
    sils = silhouette(Xn, labels, schema, kind=kind, seed=base_seed)

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
