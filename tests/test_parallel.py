"""The fork-based map and the stages that use it: grid cells and CV folds.

Every stage must write the same bytes whether its items run on forked
workers (one per CPU in the affinity mask) or serially (a one-CPU mask).
The ``amlprofiler`` command allows the fork; tests call ``main`` in-process,
so they allow it the same way, except where they check the library default.
"""

import csv
import json
import multiprocessing
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from amlprofiler import cli, parallel
from amlprofiler.cli import main
from amlprofiler.evaluation import SplitSpec, cross_validate
from amlprofiler.parallel import available_cpus, pmap


@pytest.fixture(autouse=True)
def fork_allowed(monkeypatch):
    monkeypatch.setattr(parallel, "fork_allowed", True)


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    config = {
        "window": {"start": "2014-01-01", "end": "2014-12-31"},
        "discretize": True,
        "clustering": {"k": 7, "runs": 3, "seed": 1},
        "rules": {"seed": 3},
        "grid": {"min_instances": [None, 20, 50], "sweep_steps": 7},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(config))
    args = ["--config", str(cfg_path), "--out-dir", str(out)]
    assert main([*args, "synth", "--n-customers", "220"]) == 0
    assert main([*args, "profile"]) == 0
    assert main([*args, "cluster"]) == 0
    return out, args


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def stage_bytes(out, argv, outputs):
    assert main(argv) == 0
    return [(out / name).read_bytes() for name in outputs]


@pytest.mark.parametrize("stage, outputs", [
    (["grid", "--attribute-kind", "numeric"], ["grid_numeric.csv", "grid_numeric.manifest.json"]),
    (["grid", "--attribute-kind", "nominal"], ["grid_nominal.csv", "grid_nominal.manifest.json"]),
    (["grid", "--attribute-kind", "numeric", "--sweep"],
     ["grid_sweep_numeric.csv", "grid_numeric_sweep.manifest.json"]),
    *[(["eval", "--algorithm", algorithm, "--split-mode", "cross_validation"],
       ["evaluation.json", "evaluation_row.csv", "eval.manifest.json"])
      for algorithm in ("part", "tree", "ripper")],
])
def test_default_workers_match_one_cpu(pipeline_dir, monkeypatch, stage, outputs):
    out, args = pipeline_dir
    default = stage_bytes(out, [*args, *stage], outputs)
    one_cpu(monkeypatch)
    assert stage_bytes(out, [*args, *stage], outputs) == default


def test_cross_validate_takes_a_lambda(monkeypatch):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(90, 2))
    y = (X[:, 0] > 0).astype(int)

    class Threshold:
        classes = (0, 1)
        number_of_rules = 1

        def __init__(self, cut):
            self.cut = cut

        def predict(self, X):
            return (X[:, 0] > self.cut).astype(int)

        def class_scores(self, X):
            p = self.predict(X)
            return np.column_stack([1 - p, p]).astype(float)

    spec = SplitSpec(mode="cross_validation", folds=5, seed=1)
    parallel = cross_validate(lambda X, y: Threshold(float(np.median(X[:, 0]))), X, y, spec)
    one_cpu(monkeypatch)
    serial = cross_validate(lambda X, y: Threshold(float(np.median(X[:, 0]))), X, y, spec)
    assert parallel.pooled.to_json() == serial.pooled.to_json()
    assert [r.to_json() for r in parallel.fold_reports] == [r.to_json() for r in serial.fold_reports]


def test_failing_cell_in_a_worker_is_an_error_row(pipeline_dir, monkeypatch):
    out, args = pipeline_dir
    n = len(csv_rows(out / "labeled_profiles.csv"))
    real = cli._inducer

    def planted(algorithm, schema, params):
        inducer = real(algorithm, schema, params)
        if (algorithm, params.min_instances, params.reduced_error_pruning) != ("tree", 20, True):
            return inducer

        def holdout_fails(X, y):
            # a 66/34 holdout trains on ~0.66 n rows, cross-validation on >= 0.9 n
            if len(y) < 0.8 * n:
                raise RuntimeError("planted failure")
            return inducer(X, y)

        return holdout_fails

    monkeypatch.setattr(cli, "_inducer", planted)
    assert main([*args, "grid", "--attribute-kind", "numeric"]) == 0
    rows = csv_rows(out / "grid_numeric.csv")
    failed = [r for r in rows if r["number_of_rules"].startswith("ERROR:")]
    assert [(r["algorithm"], r["min_instances"], r["rep_flag"], r["split_mode"], r["number_of_rules"])
            for r in failed] == [("tree", "20", "on", "holdout", "ERROR: planted failure")]
    complete = [r for r in rows if r not in failed]
    assert len(complete) == 29
    assert all(r[key] != "" for r in complete for key in ("number_of_rules", "percent_correct",
                                                            "kappa", "roc_area"))


def test_results_keep_item_order():
    assert pmap(lambda i: i * i, list(range(23))) == [i * i for i in range(23)]


def test_workers_never_exceed_items_or_cpus():
    pids = pmap(lambda _: os.getpid(), list(range(12)))
    assert len(set(pids)) <= min(12, available_cpus())
    assert os.getpid() not in pids or available_cpus() == 1
    assert pmap(lambda _: os.getpid(), [0]) == [os.getpid()]


def test_one_cpu_runs_in_this_process(monkeypatch):
    one_cpu(monkeypatch)
    assert pmap(lambda _: os.getpid(), list(range(5))) == [os.getpid()] * 5


def test_nested_map_in_a_worker_starts_no_process():
    def outer(_):
        inner = pmap(lambda _: os.getpid(), list(range(4)))
        return os.getpid(), inner, len(multiprocessing.active_children())

    for pid, inner, children in pmap(outer, list(range(4))):
        assert inner == [pid] * 4
        assert children == 0


def test_worker_exception_reaches_the_caller():
    def fail_on_three(i):
        if i == 3:
            raise ValueError("item 3")
        return i

    with pytest.raises(ValueError, match="item 3"):
        pmap(fail_on_three, list(range(6)))


def test_dead_worker_raises_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)  # a pool even on one CPU

    def die_on_two(i):
        if i == 2:
            os._exit(1)
        return i

    with pytest.raises(BrokenProcessPool):
        pmap(die_on_two, list(range(4)))


def test_library_calls_do_not_fork(monkeypatch):
    monkeypatch.setattr(parallel, "fork_allowed", False)
    assert pmap(lambda _: os.getpid(), list(range(5))) == [os.getpid()] * 5


def test_command_entry_point_allows_fork(monkeypatch):
    monkeypatch.setattr(parallel, "fork_allowed", False)
    monkeypatch.setattr(sys, "argv", ["amlprofiler", "--help"])
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert parallel.fork_allowed
