"""Acceptance suite: one test per criterion, each printing a pass line.

Shared synthetic datasets are generated once per session; the per-criterion
timers cover the pipeline work itself (profiling, fitting, evaluating), not
the one-time ledger generation.
"""

import csv
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from amlprofiler import clustering, evaluation, synthgen, validity
from amlprofiler.cli import geometric_steps, main
from amlprofiler.evaluation import SplitSpec, cv_folds, holdout_split
from amlprofiler.ingest import FilterPolicy, TransactionReader, filter_insignificant, parse_customers
from amlprofiler.manifest import sha256_file
from amlprofiler.profiling import (
    Profiles,
    apply_discretization,
    build_profiles_phase2,
    fit_discretization,
)
from amlprofiler.rules import (
    InductionParams,
    build_tree,
    part_induce,
    ripper_induce,
    tree_to_rules,
)

from testkit import classes_to_clusters, split_score, structural_violations

GOLDEN_DIGESTS = Path(__file__).with_name("criterion_7_digests.json")
FILTER = FilterPolicy(frozenset({synthgen.BANK_CHARGE_TYPE_CODE}))


def report(criterion, message):
    print(f"[PASS] criterion {criterion}: {message}", flush=True)


def load_ledger(out_dir, window):
    with open(out_dir / "register.csv", "rb") as fh:
        customers, _ = parse_customers(fh, window=window)
    with open(out_dir / "transactions.csv", "rb") as fh:
        reader = TransactionReader(fh, window=window, register=customers, error_cap=100)
        stream = filter_insignificant(reader, FILTER)
        return build_profiles_phase2(stream, customers, window)


def ground_truth_labels(out_dir, profiles):
    with open(out_dir / "ground_truth.csv", newline="") as fh:
        truth = {row["customer_id"]: row["archetype"] for row in csv.DictReader(fh)}
    names = sorted(set(truth.values()))
    return np.array([names.index(truth[cid]) for cid in profiles.ids])


@pytest.fixture(scope="session")
def bundled_ledger(tmp_path_factory):
    """The bundled seven-archetype config at its full 50,000-customer size."""
    out = tmp_path_factory.mktemp("bundled")
    config = synthgen.default_config()
    assert config.n_customers == 50_000 and config.noise == 0.0
    synthgen.generate_files(config, out)
    return out, config


@pytest.fixture(scope="session")
def six_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("six")
    config = synthgen.six_archetype_config(n_customers=1_500, seed=11)
    synthgen.generate_files(config, out)
    return load_ledger(out, config.window)


@pytest.fixture(scope="session")
def labeled_6k(tmp_path_factory):
    """Mid-size labeled profiles driving the rule-induction criteria."""
    out = tmp_path_factory.mktemp("labeled6k")
    config = synthgen.default_config(n_customers=6_000, seed=21)
    synthgen.generate_files(config, out)
    profiles = load_ledger(out, config.window)
    X = profiles.values
    model = clustering.kmeans_best_of(X, profiles.schema, 7, runs=10, base_seed=1)
    y = clustering.assign(model, X)
    return profiles.schema, X, y


@pytest.fixture(scope="session")
def ruleset_registry():
    """Every rule set induced during the acceptance runs, for criterion 6."""
    return []


def test_criterion_1_classes_to_clusters(bundled_ledger):
    out, config = bundled_ledger
    started = time.perf_counter()
    profiles = load_ledger(out, config.window)
    schema, X = profiles.schema, profiles.values
    ref = ground_truth_labels(out, profiles)
    assert len(profiles) == 50_000

    spec = SplitSpec(mode="holdout", train_fraction=0.66, seed=42)
    train_idx, test_idx = holdout_split(X.shape[0], spec)
    model = clustering.kmeans_best_of(X[train_idx], schema, 7, runs=10, base_seed=1)
    rate_train, _ = classes_to_clusters(model, X[train_idx], ref[train_idx])
    rate_test, _ = classes_to_clusters(model, X[test_idx], ref[test_idx])
    elapsed = time.perf_counter() - started

    assert rate_train < 0.01, f"train incorrect rate {rate_train:.4%}"
    assert rate_test < 0.01, f"test incorrect rate {rate_test:.4%}"
    assert elapsed < 120, f"pipeline took {elapsed:.0f}s"
    report(1, f"incorrect rate train {rate_train:.4%} / test {rate_test:.4%} in {elapsed:.0f}s")


def test_criterion_2_k_selection(six_dataset):
    schema, X = six_dataset.schema, six_dataset.values
    started = time.perf_counter()
    hits = {"silhouette": 0, "vrc": 0}
    for rep in range(10):
        result = validity.k_sweep(X, schema, range(2, 11), runs=10, base_seed=100 + 10 * rep)
        for metric in hits:
            hits[metric] += result.recommended[metric] == 6
    elapsed = time.perf_counter() - started
    assert hits["silhouette"] >= 9, hits
    assert hits["vrc"] >= 9, hits
    assert elapsed < 300, f"sweep repetitions took {elapsed:.0f}s"
    report(2, f"argmax=6 in {hits['silhouette']}/10 (silhouette), {hits['vrc']}/10 (VRC), {elapsed:.0f}s")


def test_criterion_3_sweep_trends(labeled_6k, ruleset_registry):
    schema, X, y = labeled_6k
    spec = SplitSpec(mode="holdout", train_fraction=0.66, seed=5)
    train_idx, test_idx = holdout_split(X.shape[0], spec, y)
    smallest = int(np.bincount(y[train_idx]).min())
    steps = geometric_steps(2, smallest, 22)
    assert len(steps) == 22
    summary = {}
    for name, inducer in (("part", part_induce), ("tree", build_tree)):
        n_rules, pcs = [], []
        for mi in steps:
            params = InductionParams(min_instances=mi, seed=5)
            model = inducer(X[train_idx], y[train_idx], schema, params)
            ruleset = tree_to_rules(model) if name == "tree" else model
            ruleset_registry.append(ruleset)
            rep = evaluation.evaluate(model, X[test_idx], y[test_idx])
            n_rules.append(rep.number_of_rules)
            pcs.append(rep.percent_correct)
        rule_violations = sum(1 for a, b in zip(n_rules, n_rules[1:]) if b > a)
        pc_violations = sum(1 for a, b in zip(pcs, pcs[1:]) if b > a + 0.5)
        assert rule_violations == 0, f"{name}: rule counts {n_rules}"
        assert pc_violations == 0, f"{name}: percent correct {pcs}"
        summary[name] = (n_rules[0], n_rules[-1])
    report(3, f"22-step sweep monotone; rules part {summary['part']}, tree {summary['tree']}")


@pytest.fixture(scope="session")
def grid_run(tmp_path_factory):
    """A full CLI pipeline (synth through grid) on a small population."""
    out = tmp_path_factory.mktemp("grid")
    config = {
        "window": {"start": "2014-01-01", "end": "2014-12-31"},
        "filter_policy": {"excluded_txn_type_codes": [99]},
        "discretize": True,
        "clustering": {"k": 7, "runs": 10, "seed": 1},
        "rules": {"seed": 3},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    args = ["--config", str(cfg_path), "--out-dir", str(out)]
    assert main([*args, "synth", "--n-customers", "2500"]) == 0
    assert main([*args, "profile", "--assume-sorted"]) == 0
    assert main([*args, "cluster"]) == 0
    assert main([*args, "grid", "--attribute-kind", "numeric"]) == 0
    assert main([*args, "grid", "--attribute-kind", "nominal"]) == 0
    return out, args


def test_criterion_4_grid_shape(grid_run):
    out, _ = grid_run
    for kind in ("numeric", "nominal"):
        with open(out / f"grid_{kind}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30, f"{kind}: {len(rows)} rows"
        for row in rows:
            assert row["attribute_kind"] == kind
            for column in ("number_of_rules", "percent_correct", "kappa", "roc_area"):
                assert row[column] not in ("", None), f"{kind}: empty {column} in {row}"
            float(row["percent_correct"])
            float(row["kappa"])
            float(row["roc_area"])
    report(4, "30 fully populated grid rows per attribute kind")


def test_criterion_5_oracle_equivalence(labeled_6k):
    schema, X, y = labeled_6k
    rng = np.random.default_rng(5)

    # sampled-vs-exact silhouette at n <= 2000
    sub = rng.choice(X.shape[0], size=1500, replace=False)
    norm = clustering.Normalization.fit(X, schema.numeric_mask())
    Xn = norm.apply(X[sub])
    exact = validity.silhouette(Xn, y[sub], schema, sample_size=1500)
    sampled = validity.silhouette(Xn, y[sub], schema, sample_size=1500, seed=777)
    assert abs(exact - sampled) <= 1e-9

    # Rand / Van Dongen vs brute force on 200 random partition pairs
    for _ in range(200):
        n = int(rng.integers(2, 51))
        a = rng.integers(0, 5, size=n)
        b = rng.integers(0, 5, size=n)
        rand, vd = validity.partition_agreement(a, b)
        pairs = agree = 0
        for i, j in itertools.combinations(range(n), 2):
            pairs += 1
            agree += (a[i] == a[j]) == (b[i] == b[j])
        table = {}
        for x_, y_ in zip(a.tolist(), b.tolist()):
            table[(x_, y_)] = table.get((x_, y_), 0) + 1
        rows, cols = {}, {}
        for (r_, c_), count in table.items():
            rows[r_] = max(rows.get(r_, 0), count)
            cols[c_] = max(cols.get(c_, 0), count)
        assert abs(rand - agree / pairs) <= 1e-12
        assert abs(vd - (2 * n - sum(rows.values()) - sum(cols.values())) / (2 * n)) <= 1e-12

    # gain ratio vs direct entropy computation on 500 random small datasets
    def entropy_of(labels):
        h = 0.0
        for c in set(labels):
            p = labels.count(c) / len(labels)
            h -= p * math.log2(p)
        return h

    small_schema = schema
    for _ in range(500):
        m = int(rng.integers(4, 16))
        Xs = rng.integers(0, 5, size=(m, len(schema))).astype(float)
        ys = rng.integers(0, 3, size=m)
        attr = int(rng.integers(0, len(schema)))
        values = np.unique(Xs[:, attr])
        if values.size < 2:
            continue
        threshold = float((values[0] + values[1]) / 2)
        gain, ratio = split_score(Xs, ys, small_schema, attr, threshold=threshold)
        left = [int(ys[i]) for i in range(m) if Xs[i, attr] <= threshold]
        right = [int(ys[i]) for i in range(m) if Xs[i, attr] > threshold]
        expected_gain = entropy_of(list(map(int, ys))) - (
            len(left) * entropy_of(left) + len(right) * entropy_of(right)
        ) / m
        split_h = entropy_of([0] * len(left) + [1] * len(right))
        expected_ratio = expected_gain / split_h if split_h > 0 else 0.0
        assert abs(gain - expected_gain) <= 1e-9
        assert abs(ratio - expected_ratio) <= 1e-9

    # k-means assignment vs exhaustive nearest-centroid scan on 1,000 points
    sub2 = rng.choice(X.shape[0], size=1000, replace=False)
    model = clustering.kmeans_fit(X[sub2], schema, 7, seed=3)
    labels = clustering.assign(model, X[sub2])
    Xn2 = model.normalization.apply(X[sub2])
    nominal_cols = np.flatnonzero(~schema.numeric_mask())
    for i in range(1000):
        dists = clustering.distances(
            model.centroids, Xn2[i][None, :], model.distance_kind, nominal_cols
        )[0]
        assert labels[i] == int(np.argmin(dists))

    # rule-set vs tree prediction equivalence on 10,000 instances
    tree = build_tree(X, y, schema, InductionParams(min_instances=5, seed=2))
    rules = tree_to_rules(tree)
    lo, hi = X.min(axis=0), X.max(axis=0)
    X_rand = rng.uniform(lo, hi, size=(10_000, X.shape[1]))
    assert np.array_equal(rules.predict(X_rand), tree.predict(X_rand))

    # kappa / percent-correct recomputation from stored matrices
    for _ in range(50):
        k = int(rng.integers(2, 6))
        counts = rng.integers(0, 40, size=(k, k))
        counts[0, 0] += 1  # keep the matrix non-empty
        matrix = evaluation.ConfusionMatrix(tuple(range(k)), counts)
        total = int(counts.sum())
        p_o = np.trace(counts) / total
        p_e = float((counts.sum(axis=1) * counts.sum(axis=0)).sum()) / total**2
        assert matrix.percent_correct == 100.0 * int(np.trace(counts)) / total
        if p_e < 1.0:
            assert abs(matrix.kappa - (p_o - p_e) / (1 - p_e)) <= 1e-12
    report(5, "silhouette, Rand/VD, gain ratio, assignment, rule/tree, kappa oracles agree")


def test_criterion_6_structural_rule_quality(labeled_6k, ruleset_registry):
    # induction battery across algorithms, attribute kinds and coverage floors
    schema, X, y = labeled_6k
    profiles = Profiles(schema, tuple(map(str, range(len(X)))), X)
    nominal = apply_discretization(profiles, fit_discretization(profiles))
    battery = []
    for kind, (sch, data) in {
        "numeric": (schema, X),
        "nominal": (nominal.schema, nominal.values),
    }.items():
        for mi in (2, 100, 1000):
            params = InductionParams(min_instances=mi, seed=7)
            battery.append(part_induce(data, y, sch, params))
            battery.append(tree_to_rules(build_tree(data, y, sch, params)))
            battery.append(ripper_induce(data, y, sch, params))
    checked = 0
    for ruleset in battery + list(ruleset_registry):
        problems = structural_violations(ruleset)
        assert problems == [], problems
        checked += 1
    report(6, f"no contradictory bounds or duplicate tests in {checked} rule sets")


def test_criterion_7_determinism(tmp_path_factory):
    config = {
        "window": {"start": "2014-01-01", "end": "2014-12-31"},
        "filter_policy": {"excluded_txn_type_codes": [99]},
        "discretize": True,
        "clustering": {"k": 5, "runs": 5, "seed": 1},
        "rules": {"algorithm": "part", "seed": 3},
        "split": {"mode": "holdout", "seed": 3},
        "grid": {"min_instances": [None, 20]},
    }
    artifact_hashes = []
    for run in ("first", "second"):
        out = tmp_path_factory.mktemp(f"determinism_{run}")
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(config))
        args = ["--config", str(cfg_path), "--out-dir", str(out)]
        assert main([*args, "synth", "--n-customers", "150"]) == 0
        assert main([*args, "profile", "--assume-sorted"]) == 0
        assert main([*args, "sweep", "--k-range", "2:4", "--runs", "2"]) == 0
        assert main([*args, "cluster"]) == 0
        assert main([*args, "rules"]) == 0
        assert main([*args, "eval"]) == 0
        assert main([*args, "grid"]) == 0
        assert main([*args, "export-kb"]) == 0
        hashes = {
            p.name: sha256_file(p)
            for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".json", ".txt") and p.name != "config.json"
        }
        artifact_hashes.append(hashes)
    assert artifact_hashes[0] == artifact_hashes[1]
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    recorded = golden["sha256"]
    differ = sorted(name for name in recorded.keys() | artifact_hashes[0].keys()
                    if recorded.get(name) != artifact_hashes[0].get(name))
    on = golden["recorded_on"]
    assert not differ, (
        f"differ from the digests recorded on Python {on['python']}, numpy {on['numpy']} "
        f"(this run: Python {platform.python_version()}, numpy {np.__version__}): "
        + ", ".join(differ))
    report(7, f"{len(artifact_hashes[0])} artifacts byte-identical across reruns "
              "and to the recorded digests")


def test_criterion_8_split_contracts():
    train, test = holdout_split(100, SplitSpec(seed=11))
    assert len(train) == 66 and len(test) == 34
    train, test = holdout_split(1237, SplitSpec(seed=11))
    assert len(train) == math.ceil(0.66 * 1237)

    y = np.array([0] * 640 + [1] * 360)
    spec = SplitSpec(mode="cross_validation", folds=10, seed=11, stratified=True)
    folds = cv_folds(1000, spec, y)
    seen = np.sort(np.concatenate(folds))
    assert np.array_equal(seen, np.arange(1000))  # each instance exactly once
    for fold in folds:
        assert abs(int((y[fold] == 0).sum()) - 64) <= 1
        assert abs(int((y[fold] == 1).sum()) - 36) <= 1
    report(8, "66/34 exact, 10-fold coverage exact, stratification within 1")


def test_criterion_9_sse_monotonicity(six_dataset, labeled_6k):
    datasets = {
        "six_archetypes": (six_dataset.schema, six_dataset.values),
        "bundled_6k": (labeled_6k[0], labeled_6k[1]),
    }
    for name, (schema, X) in datasets.items():
        best_per_k = []
        for k in range(2, 11):
            sses = []
            for run in range(10):
                model = clustering.kmeans_fit(X, schema, k, seed=1 + run)
                history = model.sse_history
                assert all(
                    b <= a + 1e-9 for a, b in zip(history, history[1:])
                ), f"{name} k={k} run={run}: SSE rose within a fit"
                sses.append(model.sse)
            best_per_k.append(min(sses))
        assert all(
            b <= a + 1e-9 for a, b in zip(best_per_k, best_per_k[1:])
        ), f"{name}: best-of-10 SSE not weakly decreasing: {best_per_k}"
    report(9, "per-iteration and per-k best-of-10 SSE weakly decreasing on both datasets")


def test_criterion_10_ingestion_scale(tmp_path_factory):
    out = tmp_path_factory.mktemp("scale10m")
    heavy = synthgen.ArchetypeSpec(
        name="heavy_flow",
        proportion=1.0,
        services_used=8,
        txns_per_month=41.7,  # ~500 rows per customer-year
        amount_scale=400.0,
        amount_sigma=0.4,
        lag_days_mean=3.0,
        interbank_outflow_ratio=0.4,
        intrabank_transfer_ratio=0.6,
        outflow_fraction=1.0,
        account_age_years_mean=9.0,
        account_age_years_sd=2.0,
    )
    config = synthgen.GeneratorConfig(
        n_customers=20_000,
        window=synthgen.default_config().window,
        archetypes=(heavy,),
        seed=99,
    )
    result = synthgen.generate_files(config, out)
    assert result.transactions >= 10_000_000, f"only {result.transactions} rows generated"
    ledger_bytes = (out / "transactions.csv").stat().st_size
    assert ledger_bytes > 600 * 1024 * 1024

    cli_config = {
        "window": {"start": "2014-01-01", "end": "2014-12-31"},
        "filter_policy": {"excluded_txn_type_codes": [99]},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cli_config))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "amlprofiler.cli",
            "--config",
            str(cfg_path),
            "--out-dir",
            str(out),
            "profile",
            "--assume-sorted",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    output = proc.stdout.read()
    # The child's own rusage, not the maximum over all children.  Its
    # ru_maxrss also counts this process's RSS at the spawn (exec keeps the
    # high-water mark), so the figure can only overstate the child's peak.
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    peak_rss = usage.ru_maxrss * 1024  # kilobytes on Linux
    assert proc.returncode == 0, output.decode()
    assert elapsed < 180, f"profiling 10M rows took {elapsed:.0f}s"
    memory_budget = 600 * 1024 * 1024  # far below the ledger itself
    assert peak_rss < memory_budget, f"peak RSS {peak_rss / 1e6:.0f} MB"
    with open(out / "profiles.csv", newline="") as fh:
        n_profiles = sum(1 for _ in fh) - 1
    assert n_profiles == 20_000
    report(
        10,
        f"{result.transactions} rows profiled in {elapsed:.0f}s, "
        f"peak RSS {peak_rss / 1e6:.0f} MB vs {ledger_bytes / 1e6:.0f} MB ledger",
    )
