import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlprofiler import clustering
from amlprofiler.clustering import kmeans_fit
from amlprofiler.profiling import Attribute, AttributeSchema
from amlprofiler.validity import (
    k_sweep,
    partition_agreement,
    silhouette,
    sse,
    vrc,
    write_sweep_csv,
)


def numeric_schema(width):
    return AttributeSchema(tuple(Attribute(f"a{i}") for i in range(width)))


def distance(a, b, schema):
    """Euclidean distance of two value vectors under the schema's 0/1 nominal rule."""
    nominal_cols = np.flatnonzero(~schema.numeric_mask())
    return clustering.distances_to(a[None, :], b, "euclidean", nominal_cols)[0]


def silhouette_oracle(X, labels, schema):
    """Direct all-pairs silhouette, one point at a time."""
    n = X.shape[0]
    uniq = sorted(set(labels.tolist()))
    total = 0.0
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            continue
        a = np.mean([distance(X[i], X[j], schema) for j in same])
        b = min(
            np.mean(
                [distance(X[i], X[j], schema)
                 for j in range(n) if labels[j] == c]
            )
            for c in uniq
            if c != labels[i]
        )
        denom = max(a, b)
        total += (b - a) / denom if denom > 0 else 0.0
    return total / n


class TestSilhouette:
    def test_two_pairs_on_a_line(self):
        # oracle by hand: s(0) = (1.05 - 0.1)/1.05, s(0.1) = (0.95 - 0.1)/0.95,
        # mirrored for the other pair; the mean is their average
        schema = numeric_schema(1)
        X = np.array([[0.0], [0.1], [1.0], [1.1]])
        labels = np.array([0, 0, 1, 1])
        s0 = (1.05 - 0.1) / 1.05
        s01 = (0.95 - 0.1) / 0.95
        expected = (s0 + s01) / 2
        got = silhouette(X, labels, schema, sample_size=4)
        assert got == pytest.approx(expected, abs=1e-12)
        assert s0 == pytest.approx(0.904761904, abs=1e-9)

    def test_single_cluster_is_error(self):
        schema = numeric_schema(1)
        with pytest.raises(ValueError):
            silhouette(np.array([[0.0], [1.0]]), np.array([0, 0]), schema)

    def test_singleton_contributes_zero(self):
        schema = numeric_schema(1)
        X = np.array([[0.0], [1.0], [1.1]])
        labels = np.array([0, 1, 1])
        expected = silhouette_oracle(X, labels, schema)
        assert silhouette(X, labels, schema, sample_size=3) == pytest.approx(expected)
        # the singleton contributes exactly 0 to the total
        s1 = (1.0 - 0.1) / 1.0
        s11 = (1.1 - 0.1) / 1.1
        assert expected == pytest.approx((0.0 + s1 + s11) / 3)

    def test_matches_oracle_on_random_data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        schema = numeric_schema(3)
        assert silhouette(X, labels, schema, sample_size=40) == pytest.approx(
            silhouette_oracle(X, labels, schema), abs=1e-9
        )

    def test_perfectly_separated_zero_radius(self):
        schema = numeric_schema(1)
        X = np.array([[0.0], [0.0], [5.0], [5.0]])
        labels = np.array([0, 0, 1, 1])
        assert silhouette(X, labels, schema, sample_size=4) == 1.0

    def test_exact_equals_full_sample(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(150, 4))
        labels = rng.integers(0, 4, size=150)
        schema = numeric_schema(4)
        exact = silhouette(X, labels, schema, sample_size=150)
        same = silhouette(X, labels, schema, sample_size=150, seed=99)
        assert exact == same

    def test_sampled_close_to_exact(self):
        rng = np.random.default_rng(2)
        centers = rng.normal(scale=6, size=(3, 4))
        X = np.vstack([rng.normal(loc=c, size=(120, 4)) for c in centers])
        labels = np.repeat([0, 1, 2], 120)
        schema = numeric_schema(4)
        exact = silhouette(X, labels, schema, sample_size=360)
        sampled = silhouette(X, labels, schema, sample_size=200, seed=5)
        assert sampled == pytest.approx(exact, abs=0.05)


class TestSse:
    def test_zero_when_points_equal_centroids(self):
        schema = numeric_schema(1)
        X = np.array([[1.0], [5.0]])
        model = kmeans_fit(X, schema, 2, seed=0)
        assert sse(X, model) == 0.0

    def test_forced_arithmetic(self):
        schema = numeric_schema(1)
        X = np.array([[0.0], [2.0]])
        model = kmeans_fit(X, schema, 1, seed=0)
        # raw centroid 1.0 and raw SSE 2.0, in normalised space (range 2)
        assert model.centroids[0, 0] == model.normalization.apply(np.array([[1.0]]))[0, 0]
        assert sse(X, model) == pytest.approx(2.0 / 2.0**2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 4))
        schema = numeric_schema(4)
        model = kmeans_fit(X, schema, 5, seed=8)
        labels = clustering.assign(model, X)
        Xn = model.normalization.apply(X)
        brute = sum(
            distance(Xn[i], model.centroids[labels[i]], schema) ** 2
            for i in range(X.shape[0])
        )
        assert sse(X, model) == pytest.approx(brute, rel=1e-9)
        assert model.sse == pytest.approx(brute, rel=1e-9)


def vrc_oracle(X, labels, schema):
    n = X.shape[0]
    uniq = sorted(set(labels.tolist()))
    k = len(uniq)
    grand = X.mean(axis=0)
    between = 0.0
    within = 0.0
    for c in uniq:
        members = X[labels == c]
        centroid = members.mean(axis=0)
        between += members.shape[0] * float(((centroid - grand) ** 2).sum())
        within += float(((members - centroid) ** 2).sum())
    if within == 0:
        return math.inf
    return (between / (k - 1)) / (within / (n - k))


class TestVrc:
    def test_two_tight_pairs_exact(self):
        schema = numeric_schema(1)
        X = np.array([[0.0], [0.2], [10.0], [10.2]])
        labels = np.array([0, 0, 1, 1])
        assert vrc(X, labels, schema) == pytest.approx(vrc_oracle(X, labels, schema), rel=1e-12)

    def test_perfect_separation_sentinel(self):
        schema = numeric_schema(1)
        X = np.array([[1.0], [1.0], [7.0], [7.0]])
        labels = np.array([0, 0, 1, 1])
        assert vrc(X, labels, schema) == math.inf

    def test_single_cluster_error(self):
        schema = numeric_schema(1)
        with pytest.raises(ValueError):
            vrc(np.array([[0.0], [1.0]]), np.array([0, 0]), schema)

    def test_k_equals_n_error(self):
        schema = numeric_schema(1)
        with pytest.raises(ValueError):
            vrc(np.array([[0.0], [1.0]]), np.array([0, 1]), schema)

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(80, 3))
        labels = rng.integers(0, 4, size=80)
        schema = numeric_schema(3)
        assert vrc(X, labels, schema) == pytest.approx(vrc_oracle(X, labels, schema), rel=1e-10)


def agreement_oracle(a, b):
    """Pairwise scan for Rand; contingency table for Van Dongen."""
    n = len(a)
    agree = 0
    for i, j in itertools.combinations(range(n), 2):
        same_a = a[i] == a[j]
        same_b = b[i] == b[j]
        agree += same_a == same_b
    rand = agree / (n * (n - 1) / 2)
    table = {}
    for x, y in zip(a, b):
        table[(x, y)] = table.get((x, y), 0) + 1
    rows = {}
    cols = {}
    for (x, y), c in table.items():
        rows[x] = max(rows.get(x, 0), c)
        cols[y] = max(cols.get(y, 0), c)
    vd_raw = 2 * n - sum(rows.values()) - sum(cols.values())
    return rand, vd_raw / (2 * n)


class TestPartitionAgreement:
    def test_identical_partitions(self):
        a = np.array([0, 0, 1, 2, 2])
        rand, vd = partition_agreement(a, a)
        assert rand == 1.0 and vd == 0.0

    def test_three_element_example(self):
        rand, _ = partition_agreement(np.array([0, 0, 1]), np.array([0, 1, 1]))
        assert rand == pytest.approx(1 / 3)

    def test_singletons_vs_one_block(self):
        a = np.array([0, 1, 2, 3])
        b = np.array([0, 0, 0, 0])
        rand, vd = partition_agreement(a, b)
        assert rand == 0.0
        assert vd == pytest.approx(3 / 8)  # raw 2n - 4 - 1 = 3, over 2n = 8

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            partition_agreement(np.array([0, 1]), np.array([0, 1, 2]))

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 5, size=n)
            rand, vd = partition_agreement(a, b)
            o_rand, o_vd = agreement_oracle(a.tolist(), b.tolist())
            assert rand == pytest.approx(o_rand, abs=1e-12)
            assert vd == pytest.approx(o_vd, abs=1e-12)

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=40))
    @settings(max_examples=40)
    def test_symmetry_and_relabeling(self, labels):
        a = np.array(labels)
        rng = np.random.default_rng(0)
        b = rng.integers(0, 3, size=len(labels))
        r_ab, v_ab = partition_agreement(a, b)
        r_ba, v_ba = partition_agreement(b, a)
        assert r_ab == pytest.approx(r_ba) and v_ab == pytest.approx(v_ba)
        relabeled = np.array([[7, 3, 9, 11, 5][v] for v in labels])
        r2, v2 = partition_agreement(relabeled, b)
        assert r2 == pytest.approx(r_ab) and v2 == pytest.approx(v_ab)


def blobs(n_per, centers, spread, seed):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(loc=c, scale=spread, size=(n_per, len(c))) for c in centers])
    return X


class TestKSweep:
    def test_planted_three_blobs(self):
        X = blobs(40, [(0, 0), (8, 0), (0, 8)], 0.4, seed=1)
        schema = numeric_schema(2)
        result = k_sweep(X, schema, range(2, 6), runs=3, base_seed=5)
        assert result.recommended["silhouette"] == 3
        assert result.recommended["vrc"] == 3
        k3 = next(r for r in result.reports if r.k == 3)
        assert k3.rand_stability_mean == 1.0  # identical partitions across runs
        assert k3.van_dongen_stability_mean == 1.0

    def test_single_k_range(self):
        X = blobs(20, [(0, 0), (5, 5)], 0.3, seed=2)
        schema = numeric_schema(2)
        result = k_sweep(X, schema, [2], runs=2, base_seed=1)
        assert len(result.reports) == 1
        assert all(v == 2 for v in result.recommended.values())

    def test_best_sse_weakly_decreasing_in_k(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(120, 3))
        schema = numeric_schema(3)
        result = k_sweep(X, schema, range(2, 9), runs=4, base_seed=3)
        best = [min(r.sse_values) for r in result.reports]
        assert all(b <= a + 1e-9 for a, b in zip(best, best[1:]))

    def test_runs_below_two_rejected(self):
        X = blobs(10, [(0, 0), (4, 4)], 0.3, seed=3)
        with pytest.raises(ValueError):
            k_sweep(X, numeric_schema(2), [2], runs=1)

    def test_sweep_csv_shape(self, tmp_path):
        X = blobs(15, [(0, 0), (6, 6)], 0.3, seed=4)
        schema = numeric_schema(2)
        result = k_sweep(X, schema, range(2, 4), runs=3, base_seed=1)
        path = tmp_path / "sweep.csv"
        with open(path, "w") as fh:
            write_sweep_csv(fh, result)
        lines = path.read_text().strip().splitlines()
        # header + (2 ks) * (3 run rows + 1 summary row)
        assert len(lines) == 1 + 2 * 4
        assert lines[0].startswith("k,row_type,run")
