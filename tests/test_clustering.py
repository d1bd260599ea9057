import numpy as np
import pytest

from amlprofiler.clustering import (
    ClusterModel,
    Normalization,
    assign,
    distances_to,
    kmeans_best_of,
    kmeans_fit,
    pairwise_distances,
    seed_indices,
)
from amlprofiler.profiling import Attribute, AttributeSchema, NOMINAL


def numeric_schema(width):
    return AttributeSchema(tuple(Attribute(f"a{i}") for i in range(width)))


def nominal_schema(width, levels=3):
    names = tuple(str(i) for i in range(levels))
    return AttributeSchema(tuple(Attribute(f"a{i}", NOMINAL, names) for i in range(width)))


class TestNormalization:
    def test_endpoints(self):
        X = np.array([[1.0], [5.0], [9.0]])
        norm = Normalization.fit(X, np.array([True]))
        Xn = norm.apply(X)
        assert Xn[0, 0] == 0.0 and Xn[2, 0] == 1.0
        assert Xn[1, 0] == 0.5

    def test_constant_attribute_maps_to_zero(self):
        X = np.array([[4.0], [4.0]])
        norm = Normalization.fit(X, np.array([True]))
        assert (norm.apply(X) == 0.0).all()

    def test_no_clamping_outside_training_range(self):
        X = np.array([[0.0], [10.0]])
        norm = Normalization.fit(X, np.array([True]))
        assert norm.apply(np.array([[20.0]]))[0, 0] == 2.0

    def test_nominal_untouched(self):
        schema = AttributeSchema((Attribute("n", NOMINAL, ("a", "b")), Attribute("x")))
        X = np.array([[1.0, 0.0], [0.0, 10.0]])
        norm = Normalization.fit(X, schema.numeric_mask())
        Xn = norm.apply(X)
        assert Xn[0, 0] == 1.0 and Xn[1, 0] == 0.0


def distance(a, b, kind, schema):
    """Distance of two value vectors: one off-diagonal pairwise entry."""
    return pairwise_distances(np.array([a, b], dtype=float), kind, schema)[0, 1]


class TestDistance:
    def test_identical_vectors(self):
        schema = numeric_schema(3)
        assert distance([1, 2, 3], [1, 2, 3], "euclidean", schema) == 0.0

    def test_nominal_zero_one_rule(self):
        schema = nominal_schema(5)
        a = [0, 1, 2, 0, 1]
        b = [0, 2, 1, 1, 1]  # differs in 3 of 5
        assert distance(a, b, "euclidean", schema) == pytest.approx(np.sqrt(3))
        assert distance(a, b, "manhattan", schema) == pytest.approx(3.0)

    def test_numeric_difference(self):
        schema = numeric_schema(2)
        assert distance([0.2, 0.9], [0.5, 0.9], "euclidean", schema) == pytest.approx(0.3)

    def test_pairwise_matrix(self):
        schema = numeric_schema(2)
        X = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = pairwise_distances(X, "euclidean", schema)
        assert d[0, 1] == d[1, 0] == 5.0
        assert d[0, 0] == d[1, 1] == 0.0


class TestKMeansFit:
    def test_symmetric_four_points(self):
        schema = numeric_schema(2)
        # two pairs on a line; min-max scaling would make four corner points a
        # square, where both pairings tie
        X = np.array([[0.0, 3.0], [1.0, 3.0], [10.0, 3.0], [11.0, 3.0]])
        model = kmeans_fit(X, schema, 2, seed=0)
        got = sorted(model.centroids.tolist())
        # the raw centroids (0.5, 3) and (10.5, 3), and the raw SSE 1.0 over a
        # range of 11, in normalised space
        expected = model.normalization.apply(np.array([[0.5, 3.0], [10.5, 3.0]]))
        np.testing.assert_allclose(got, expected, rtol=1e-15)
        assert model.sse == pytest.approx(1.0 / 11.0**2)

    def test_k_equals_n_gives_zero_sse(self):
        schema = numeric_schema(2)
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        model = kmeans_fit(X, schema, 4, seed=3)
        assert model.sse == 0.0

    def test_k_above_distinct_rows_rejected(self):
        schema = numeric_schema(1)
        X = np.array([[1.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="distinct"):
            kmeans_fit(X, schema, 3, seed=0)

    def test_non_finite_rejected(self):
        schema = numeric_schema(1)
        with pytest.raises(ValueError, match="finite"):
            kmeans_fit(np.array([[1.0], [np.nan]]), schema, 1, seed=0)

    def test_determinism(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        schema = numeric_schema(4)
        a = kmeans_fit(X, schema, 5, seed=42)
        b = kmeans_fit(X, schema, 5, seed=42)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.sse == b.sse and a.iterations_run == b.iterations_run

    def test_sse_history_non_increasing(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 5))
        schema = numeric_schema(5)
        for seed in range(5):
            model = kmeans_fit(X, schema, 6, seed=seed)
            history = model.sse_history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_every_cluster_non_empty(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 3))
        schema = numeric_schema(3)
        model = kmeans_fit(X, schema, 8, seed=7)
        labels = assign(model, X)
        assert set(labels.tolist()) == set(range(8))

    def test_assign_reproduces_training_fixpoint(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(250, 4))
        schema = numeric_schema(4)
        model = kmeans_fit(X, schema, 4, seed=5)
        labels = assign(model, X)
        # converged model: centroids are the means of the assignment they induce
        Xn = model.normalization.apply(X)
        for j in range(model.k):
            np.testing.assert_allclose(Xn[labels == j].mean(axis=0), model.centroids[j])

    def test_nominal_mode_tie_breaks_low(self):
        schema = AttributeSchema((Attribute("n", NOMINAL, ("a", "b", "c")),))
        X = np.array([[0.0], [0.0], [1.0], [1.0], [2.0]])
        model = kmeans_fit(X, schema, 1, seed=0)
        assert model.centroids[0, 0] == 0.0  # tie between levels 0 and 1

    def test_best_of_runs_keeps_min_sse(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 3))
        schema = numeric_schema(3)
        models = [kmeans_fit(X, schema, 5, seed=s) for s in range(10, 16)]
        best = kmeans_best_of(X, schema, 5, runs=6, base_seed=10)
        assert best.sse == min(m.sse for m in models)


class TestSeeding:
    def test_second_seed_conditional_certainty(self):
        # on {0,0,0,3}: whenever the first seed is a zero point, the second
        # draw must be the 3 (it holds all the squared-distance mass)
        schema = numeric_schema(1)
        X = np.array([[0.0], [0.0], [0.0], [3.0]])
        nominal_cols = np.flatnonzero(~schema.numeric_mask())
        first_zero = 0
        second_three = 0
        first_counts = np.zeros(4)
        for seed in range(10_000):
            rng = np.random.default_rng(seed)
            chosen = seed_indices(X, 2, "euclidean", nominal_cols, rng)
            first_counts[chosen[0]] += 1
            if chosen[0] != 3:
                first_zero += 1
                second_three += chosen[1] == 3
        assert first_zero > 0
        assert second_three == first_zero  # conditional probability exactly 1
        # first seed is uniform over the four points
        assert np.allclose(first_counts / 10_000, 0.25, atol=0.02)


class TestAssign:
    def test_training_point_on_centroid(self):
        schema = numeric_schema(1)
        X = np.array([[0.0], [10.0]])
        model = kmeans_fit(X, schema, 2, seed=0)
        labels = assign(model, X)
        for x, lab in zip(model.normalization.apply(X), labels):
            assert model.centroids[lab, 0] == x[0]

    def test_equidistant_goes_to_lowest_index(self):
        schema = numeric_schema(1)
        model = ClusterModel(
            k=2,
            centroids=np.array([[0.0], [1.0]]),
            distance_kind="euclidean",
            normalization=Normalization(np.zeros(1), np.ones(1)),
            schema=schema,
            seed=0,
            iterations_run=1,
            sse=0.0,
        )
        assert assign(model, np.array([[0.5]]))[0] == 0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(1000, 5))
        schema = numeric_schema(5)
        model = kmeans_fit(X, schema, 9, seed=13)
        labels = assign(model, X)
        Xn = model.normalization.apply(X)
        no_nominal = np.zeros(0, dtype=np.int64)
        for i in range(X.shape[0]):
            dists = [
                distances_to(Xn[i][None, :], model.centroids[j], model.distance_kind, no_nominal)[0]
                for j in range(model.k)
            ]
            assert labels[i] == int(np.argmin(dists))

    def test_schema_width_mismatch(self):
        schema = numeric_schema(2)
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = kmeans_fit(X, schema, 2, seed=0)
        with pytest.raises(ValueError):
            assign(model, np.array([[1.0, 2.0, 3.0]]))


class TestModelPersistence:
    def test_json_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 3))
        schema = numeric_schema(3)
        model = kmeans_fit(X, schema, 3, seed=2)
        path = tmp_path / "model.json"
        model.save(path)
        again = ClusterModel.load(path)
        assert np.array_equal(again.centroids, model.centroids)
        assert again.sse == model.sse
        assert again.distance_kind == model.distance_kind
        assert np.array_equal(assign(again, X), assign(model, X))
