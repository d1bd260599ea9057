"""Mixed-attribute k-means over customer profiles.

Numeric attributes are min-max rescaled (the raw ranges span many orders of
magnitude) and compared by difference; nominal attributes contribute 0 when
equal and 1 when different.  Centroids hold per-attribute means for numeric
columns and the modal level for nominal ones.  Everything is seeded and
tie-breaks are fixed, so a fit is a pure function of (data, k, kind, seed).
Every distance, of seeding, assignment and the silhouettes, comes from one
kernel, ``distances``.
A fit keeps the labels of the rows it was fitted on.  ``seeded_fits`` runs
the fits of several k and seeds on ``parallel.pmap``'s workers; ``sweep``'s
90 fits and ``cluster``'s restarts go through it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import parallel
from .manifest import from_json, write_json
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
    # what ``assign`` gives on the rows of the fit; not saved, so None once loaded
    labels: Optional[np.ndarray] = field(default=None, repr=False)

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
            "schema": asdict(self.schema),
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
            schema=from_json(AttributeSchema, obj["schema"], "schema"),
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


def distances(
    X: np.ndarray, centers: np.ndarray, kind: str, nominal_cols: np.ndarray
) -> np.ndarray:
    """Distances from each row of ``centers`` to every row of X: a (centers x
    rows) matrix.  Nominal columns count 0 when equal and 1 when different.
    Each center's differences go through one reused (rows x d) buffer; the
    Euclidean kind squares them without taking ``abs`` first, since
    (-x)**2 == x**2 exactly."""
    if kind not in (EUCLIDEAN, MANHATTAN):
        raise ValueError(f"unknown distance kind {kind!r}")
    out = np.empty((centers.shape[0], X.shape[0]))
    d = np.empty(X.shape)
    for center, row in zip(centers, out):
        np.subtract(X, center, out=d)
        if nominal_cols.size:
            d[:, nominal_cols] = d[:, nominal_cols] != 0
        if kind == EUCLIDEAN:
            np.sqrt(np.einsum("ij,ij->i", d, d), out=row)
        else:
            np.abs(d, out=d)
            d.sum(axis=1, out=row)
    return out


def pairwise_distances(
    X: np.ndarray, kind: str, schema: AttributeSchema, rows: slice = slice(None)
) -> np.ndarray:
    """Distances from the rows ``rows`` of X (all by default) to every row of
    X, one result row each; the full matrix is quadratic, callers cap n."""
    return distances(X, X[rows], kind, np.flatnonzero(~schema.numeric_mask()))


def _nearest(X: np.ndarray, centroids: np.ndarray, kind: str, nominal_cols: np.ndarray):
    """Labels (lowest index wins ties) and distance of each row to its centroid."""
    d = distances(X, centroids, kind, nominal_cols)
    return d.argmin(axis=0), d.min(axis=0)


def seed_indices(X: np.ndarray, k: int, kind: str, nominal_cols: np.ndarray, rng) -> list[int]:
    """k-means++ start: first center uniform, later ones drawn with
    probability proportional to squared distance to the nearest chosen one.

    Each step draws a few weighted candidates and keeps the one that lowers
    the total potential most (the greedy refinement from the algorithm's
    reference implementations; the first of equal potentials); every
    candidate draw follows the squared-distance law.
    """
    n = X.shape[0]
    trials = 2 + 2 * int(math.log2(k)) if k > 1 else 1
    chosen = [int(rng.integers(n))]
    best = distances(X, X[chosen[0]][None, :], kind, nominal_cols)[0] ** 2
    while len(chosen) < k:
        total = best.sum()
        if total <= 0:
            raise ValueError("fewer distinct profiles than requested clusters")
        candidates = rng.choice(n, size=trials, p=best / total)
        d2 = distances(X, X[candidates], kind, nominal_cols) ** 2
        np.minimum(d2, best, out=d2)
        pick = int(np.argmin(d2.sum(axis=1)))
        chosen.append(int(candidates[pick]))
        best = d2[pick]
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
    A k above the number of distinct profiles fails in the seeding.  The
    model's ``labels`` are those of its final centroids, as ``assign`` gives
    them.
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
        emptied = np.flatnonzero(np.bincount(new_labels, minlength=k) == 0)
        for j in emptied:
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
    if emptied.size:
        # a centroid moved onto its new member after the rows were labeled
        new_labels, _ = _nearest(Xn, centroids, kind, nominal_cols)

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
        labels=new_labels,
    )


def seeded_fits(
    X: np.ndarray,
    schema: AttributeSchema,
    ks: Sequence[int],
    *,
    runs: int,
    kind: str = EUCLIDEAN,
    base_seed: int = 1,
    max_iter: int = 500,
    then: Callable[[ClusterModel], object] = lambda model: model,
) -> list:
    """``then(kmeans_fit(...))`` for each k of ``ks`` and each seed
    base_seed..base_seed+runs-1, in (k, run) order, computed on
    ``parallel.pmap``'s workers; ``then`` runs in the worker, so it may
    score the fit there and return less than the model."""

    def fit(task: tuple[int, int]):
        k, seed = task
        return then(kmeans_fit(X, schema, k, kind=kind, seed=seed, max_iter=max_iter))

    return parallel.pmap(fit, [(k, base_seed + r) for k in ks for r in range(runs)])


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
    models = seeded_fits(X, schema, [k], runs=runs, kind=kind, base_seed=base_seed,
                         max_iter=max_iter)
    return min(models, key=lambda model: model.sse)  # the first of equal SSEs


def assign(model: ClusterModel, X: np.ndarray) -> np.ndarray:
    """Label profile rows with their nearest centroid (lowest index wins ties)."""
    if X.shape[1] != len(model.schema):
        raise ValueError("profiles do not match the model schema")
    Xn = model.normalization.apply(X)
    nominal_cols = np.flatnonzero(~model.schema.numeric_mask())
    labels, _ = _nearest(Xn, model.centroids, model.distance_kind, nominal_cols)
    return labels
