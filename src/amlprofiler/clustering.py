"""Mixed-attribute k-means over customer profiles.

Numeric attributes are min-max rescaled (the raw ranges span many orders of
magnitude) and compared by difference; nominal attributes contribute 0 when
equal and 1 when different.  Centroids hold per-attribute means for numeric
columns and the modal level for nominal ones.  Everything is seeded and
tie-breaks are fixed, so a fit is a pure function of (data, k, kind, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .manifest import write_json
from .profiling import AttributeSchema

EUCLIDEAN = "euclidean"
MANHATTAN = "manhattan"


@dataclass(frozen=True)
class Normalization:
    """Per-column affine rescale fitted on training data.

    Nominal columns carry the identity (min 0, range 1).  Constant numeric
    columns get range 0 and map to 0.  Values outside the training range are
    not clamped; distances stay meaningful beyond [0, 1].
    """

    mins: np.ndarray
    ranges: np.ndarray

    @staticmethod
    def fit(X: np.ndarray, numeric_mask: np.ndarray) -> "Normalization":
        mins = np.zeros(X.shape[1])
        ranges = np.ones(X.shape[1])
        col_min = X[:, numeric_mask].min(axis=0)
        col_max = X[:, numeric_mask].max(axis=0)
        mins[numeric_mask] = col_min
        ranges[numeric_mask] = col_max - col_min
        return Normalization(mins, ranges)

    def apply(self, X: np.ndarray) -> np.ndarray:
        safe = np.where(self.ranges > 0, self.ranges, 1.0)
        Xn = (X - self.mins) / safe
        Xn[:, self.ranges == 0] = 0.0
        return Xn


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray  # normalized space; nominal columns hold level indices
    distance_kind: str
    normalization: Normalization
    schema: AttributeSchema
    seed: int
    iterations_run: int
    sse: float
    sse_history: tuple[float, ...] = ()

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "distance": self.distance_kind,
            "seed": self.seed,
            "iterations": self.iterations_run,
            "sse": self.sse,
            "sse_history": list(self.sse_history),
            "normalization": {
                "mins": self.normalization.mins.tolist(),
                "ranges": self.normalization.ranges.tolist(),
            },
            "centroids": self.centroids.tolist(),
            "schema": self.schema.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "ClusterModel":
        return ClusterModel(
            k=obj["k"],
            centroids=np.asarray(obj["centroids"], dtype=float),
            distance_kind=obj["distance"],
            normalization=Normalization(
                np.asarray(obj["normalization"]["mins"], dtype=float),
                np.asarray(obj["normalization"]["ranges"], dtype=float),
            ),
            schema=AttributeSchema.from_json(obj["schema"]),
            seed=obj["seed"],
            iterations_run=obj["iterations"],
            sse=obj["sse"],
            sse_history=tuple(obj.get("sse_history", ())),
        )

    def save(self, path: Path | str) -> None:
        write_json(path, self.to_json())

    @staticmethod
    def load(path: Path | str) -> "ClusterModel":
        with open(path, "r", encoding="utf-8") as fh:
            return ClusterModel.from_json(json.load(fh))


def _diffs(X: np.ndarray, center: np.ndarray, nominal_cols: np.ndarray) -> np.ndarray:
    d = np.abs(X - center)
    if nominal_cols.size:
        d[:, nominal_cols] = d[:, nominal_cols] != 0
    return d


def distances_to(
    X: np.ndarray, center: np.ndarray, kind: str, nominal_cols: np.ndarray
) -> np.ndarray:
    d = _diffs(X, center, nominal_cols)
    if kind == EUCLIDEAN:
        return np.sqrt(np.einsum("ij,ij->i", d, d))
    if kind == MANHATTAN:
        return d.sum(axis=1)
    raise ValueError(f"unknown distance kind {kind!r}")


def pairwise_distances(X: np.ndarray, kind: str, schema: AttributeSchema) -> np.ndarray:
    """Full n x n distance matrix; quadratic, callers cap n."""
    nominal_cols = np.flatnonzero(~schema.numeric_mask())
    n = X.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        out[i] = distances_to(X, X[i], kind, nominal_cols)
    return out


def _nearest(X: np.ndarray, centroids: np.ndarray, kind: str, nominal_cols: np.ndarray):
    """Labels (lowest index wins ties) and distance of each row to its centroid."""
    n = X.shape[0]
    best = np.full(n, np.inf)
    labels = np.zeros(n, dtype=np.int64)
    for j in range(centroids.shape[0]):
        dj = distances_to(X, centroids[j], kind, nominal_cols)
        better = dj < best
        labels[better] = j
        best[better] = dj[better]
    return labels, best


def seed_indices(X: np.ndarray, k: int, kind: str, nominal_cols: np.ndarray, rng) -> list[int]:
    """k-means++ start: first center uniform, later ones drawn with
    probability proportional to squared distance to the nearest chosen one.

    Each step draws a few weighted candidates and keeps the one that lowers
    the total potential most (the greedy refinement from the algorithm's
    reference implementations); every candidate draw follows the squared-
    distance law.
    """
    n = X.shape[0]
    trials = 2 + 2 * int(math.log2(k)) if k > 1 else 1
    chosen = [int(rng.integers(n))]
    best = distances_to(X, X[chosen[0]], kind, nominal_cols) ** 2
    while len(chosen) < k:
        total = best.sum()
        if total <= 0:
            raise ValueError("fewer distinct profiles than requested clusters")
        candidates = rng.choice(n, size=trials, p=best / total)
        next_idx = -1
        next_best = None
        next_potential = math.inf
        for cand in candidates:
            d2 = distances_to(X, X[int(cand)], kind, nominal_cols) ** 2
            np.minimum(d2, best, out=d2)
            potential = float(d2.sum())
            if potential < next_potential:
                next_idx, next_best, next_potential = int(cand), d2, potential
        chosen.append(next_idx)
        best = next_best
    return chosen


def centroid(X: np.ndarray, numeric_mask: np.ndarray) -> np.ndarray:
    """Column means of the numeric columns and the modal level of the
    nominal ones (lowest level wins ties)."""
    out = np.zeros(X.shape[1])
    out[numeric_mask] = X[:, numeric_mask].mean(axis=0)
    for col in np.flatnonzero(~numeric_mask):
        out[col] = float(np.argmax(np.bincount(X[:, col].astype(np.int64))))
    return out


def kmeans_fit(
    X: np.ndarray,
    schema: AttributeSchema,
    k: int,
    *,
    kind: str = EUCLIDEAN,
    seed: int = 1,
    max_iter: int = 500,
) -> ClusterModel:
    """Lloyd iterations from a k-means++ start until assignments stabilize.

    Ties (nearest centroid, nominal mode) break toward the lowest index.  An
    emptied cluster is re-seeded with the instance farthest from its own
    centroid.  SSE is the sum of squared distances of the configured kind.
    A k above the number of distinct profiles fails in the seeding.
    """
    if not np.isfinite(X).all():
        raise ValueError("profiles contain non-finite values")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    numeric_mask = schema.numeric_mask()
    nominal_cols = np.flatnonzero(~numeric_mask)
    norm = Normalization.fit(X, numeric_mask)
    Xn = norm.apply(X)

    rng = np.random.default_rng(seed)
    centroids = Xn[seed_indices(Xn, k, kind, nominal_cols, rng)].copy()

    labels = np.full(X.shape[0], -1, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        new_labels, dists = _nearest(Xn, centroids, kind, nominal_cols)
        # Re-seed emptied clusters with the instance farthest from its centroid.
        present = np.bincount(new_labels, minlength=k)
        for j in np.flatnonzero(present == 0):
            far = int(np.argmax(dists))
            new_labels[far] = j
            centroids[j] = Xn[far]
            dists[far] = 0.0
        history.append(float(np.sum(dists**2)))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        if iterations == max_iter:
            break  # keep the centroids that produced the final assignment
        centroids = np.array([centroid(Xn[labels == j], numeric_mask) for j in range(k)])

    return ClusterModel(
        k=k,
        centroids=centroids,
        distance_kind=kind,
        normalization=norm,
        schema=schema,
        seed=seed,
        iterations_run=iterations,
        sse=history[-1],
        sse_history=tuple(history),
    )


def kmeans_best_of(
    X: np.ndarray,
    schema: AttributeSchema,
    k: int,
    *,
    runs: int = 10,
    kind: str = EUCLIDEAN,
    base_seed: int = 1,
    max_iter: int = 500,
) -> ClusterModel:
    """Fit ``runs`` seeded models and keep the lowest-SSE one.

    Lloyd iterations only find local optima; repeating the fit over seeds
    base_seed..base_seed+runs-1 and keeping the best is the standard remedy
    and stays fully deterministic.
    """
    best: Optional[ClusterModel] = None
    for r in range(runs):
        model = kmeans_fit(X, schema, k, kind=kind, seed=base_seed + r, max_iter=max_iter)
        if best is None or model.sse < best.sse:
            best = model
    return best


def assign(model: ClusterModel, X: np.ndarray) -> np.ndarray:
    """Label profile rows with their nearest centroid (lowest index wins ties)."""
    if X.shape[1] != len(model.schema):
        raise ValueError("profiles do not match the model schema")
    Xn = model.normalization.apply(X)
    nominal_cols = np.flatnonzero(~model.schema.numeric_mask())
    labels, _ = _nearest(Xn, model.centroids, model.distance_kind, nominal_cols)
    return labels
