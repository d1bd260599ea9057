"""The fork-based map and the stages that use it: grid cells, CV folds, the
k-means fits of ``sweep`` and ``cluster``, and the ledger ranges and FIFO
shards of ``profile``.

Every stage must write the same bytes whether its items run on forked
workers (one per CPU in the affinity mask) or serially (a one-CPU mask).
The ``amlprofiler`` command allows the fork; tests call ``main`` in-process,
so they allow it the same way, except where they check the library default.
"""

import csv
import errno
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from amlprofiler import cli, ingest, parallel
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


BAD_ROWS = [
    b"cust_0000001,acc,not-a-time,1.00,credit,1,1,\n",
    b"cust_0000002,acc\xff,2014-05-01T00:00:00,1.00,credit,1,1,\n",  # not UTF-8
    b"GHOST,acc,2014-05-01T00:00:00,1.00,credit,1,1,\n",
    b"cust_0000003,acc,2014-05-01T00:00:00,-1.00,credit,1,1,\n",
    b"cust_0000004,acc,2014-05-01T00:00:00,1.00,sideways,1,1,\n",
]


def planted_ledger(pipeline_dir, out, fractions, config):
    """The pipeline's ledger and register in ``out``, with a malformed row
    planted at each fraction of the ledger's lines, and the ``profile``
    arguments of ``config``.  The ledger splits into ranges however small it
    is; returns the byte offsets of the planted rows too."""
    src, _ = pipeline_dir
    lines = (src / "transactions.csv").read_bytes().splitlines(keepends=True)
    offsets = []
    for i, fraction in reversed(list(enumerate(fractions))):
        lines.insert(max(1, int(fraction * len(lines))), BAD_ROWS[i % len(BAD_ROWS)])
    for i, line in enumerate(lines):
        if line in BAD_ROWS:
            offsets.append(sum(map(len, lines[:i])))
    (out / "transactions.csv").write_bytes(b"".join(lines))
    (out / "register.csv").write_bytes((src / "register.csv").read_bytes())
    (out / "config.json").write_text(json.dumps(
        {"window": {"start": "2014-01-01", "end": "2014-12-31"},
         "filter_policy": {"excluded_txn_type_codes": [99]}, **config}))
    return ["--config", str(out / "config.json"), "--out-dir", str(out)], offsets


def ranges_seen(monkeypatch) -> list:
    """The ledger ranges of each ``profile`` run from here on, every ledger
    splitting however small it is."""
    monkeypatch.setattr(ingest, "MIN_SPLIT_BYTES", 0)
    seen = []
    real = cli.ledger_ranges
    monkeypatch.setattr(cli, "ledger_ranges",
                        lambda path, parts, **kw: seen.append(real(path, parts, **kw)) or seen[-1])
    return seen


def csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def stage_bytes(out, argv, outputs):
    assert main(argv) == 0
    return [(out / name).read_bytes() for name in outputs]


PROFILE_OUTPUTS = ["profiles.csv", "profiles.schema.json", "rejected_rows.csv",
                   "profile.manifest.json"]


@pytest.mark.parametrize("stage, outputs", [
    (["grid", "--attribute-kind", "numeric"], ["grid_numeric.csv", "grid_numeric.manifest.json"]),
    (["grid", "--attribute-kind", "nominal"], ["grid_nominal.csv", "grid_nominal.manifest.json"]),
    (["grid", "--attribute-kind", "numeric", "--sweep"],
     ["grid_sweep_numeric.csv", "grid_numeric_sweep.manifest.json"]),
    *[(["eval", "--algorithm", algorithm, "--split-mode", "cross_validation"],
       ["evaluation.json", "evaluation_row.csv", "eval.manifest.json"])
      for algorithm in ("part", "tree", "ripper")],
    (["profile"], PROFILE_OUTPUTS),
    (["profile", "--discretize"],
     [*PROFILE_OUTPUTS, "profiles_nominal.csv", "profiles_nominal.schema.json"]),
    (["profile", "--phase", "1"], PROFILE_OUTPUTS),
    (["sweep"], ["sweep.csv", "sweep_recommendation.json", "sweep.manifest.json"]),
    (["cluster"], ["cluster_model.json", "labeled_profiles.csv", "labeled_profiles_nominal.csv",
                   "cluster.manifest.json"]),
])
def test_default_workers_match_one_cpu(pipeline_dir, monkeypatch, tmp_path, stage, outputs):
    out, args = pipeline_dir
    if stage[0] == "profile":
        out = tmp_path
        args, planted = planted_ledger(pipeline_dir, out, [0.02, 0.5, 0.98], {})
        seen = ranges_seen(monkeypatch)
    default = stage_bytes(out, [*args, *stage], outputs)
    one_cpu(monkeypatch)
    assert stage_bytes(out, [*args, *stage], outputs) == default
    if stage[0] == "profile" and available_cpus() > 1:
        forked, serial = seen
        assert len(forked) > 1 and len(serial) == 1
        # the planted rows lie in more than one range
        assert len({sum(r.start <= at for r in forked) for at in planted}) > 1


def test_sweep_csv_is_the_same_on_any_cpu_mask_and_blas_thread_count(tmp_path):
    """The ``amlprofiler`` command writes the same ``sweep.csv`` at the
    default mask, on one CPU and on one BLAS thread.  At 400 customers a
    silhouette summed by a BLAS product changed its last bits between these."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "pipeline.example.json")
    args = ["--config", config, "--out-dir", str(tmp_path)]
    assert main([*args, "synth", "--n-customers", "400"]) == 0
    assert main([*args, "profile", "--assume-sorted"]) == 0
    first_cpu = min(os.sched_getaffinity(0))
    runs = {"default": ({}, None),
            "one_cpu": ({}, lambda: os.sched_setaffinity(0, {first_cpu})),
            "one_blas_thread": ({"OPENBLAS_NUM_THREADS": "1"}, None)}
    sweeps = {}
    for name, (env, preexec) in runs.items():
        out = tmp_path / name
        out.mkdir()
        for profile in tmp_path.glob("profiles*"):
            (out / profile.name).write_bytes(profile.read_bytes())
        subprocess.run([sys.executable, "-m", "amlprofiler.cli", "--config", config,
                        "--out-dir", str(out), "sweep"],
                       env={**os.environ, "PYTHONPATH": src, **env}, preexec_fn=preexec,
                       check=True, capture_output=True)
        sweeps[name] = (out / "sweep.csv").read_bytes()
    assert sweeps["one_cpu"] == sweeps["default"]
    assert sweeps["one_blas_thread"] == sweeps["default"]


def test_error_cap_abort_in_several_ranges_matches_one_cpu(pipeline_dir, monkeypatch, tmp_path,
                                                           capsys):
    args, planted = planted_ledger(pipeline_dir, tmp_path, [0.1, 0.3, 0.5, 0.7, 0.9],
                                   {"error_cap": 3})
    seen = ranges_seen(monkeypatch)
    runs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main([*args, "profile"])
        runs.append((exc.value.code, capsys.readouterr().err,
                     (tmp_path / "rejected_rows.csv").read_bytes()))
        one_cpu(monkeypatch)
    assert runs[0] == runs[1]
    assert runs[0][:2] == (2, "error: aborted after 4 malformed rows (cap 3)\n")
    if available_cpus() > 1:
        # the cap is reached with rejections in more than one range
        assert len({sum(r.start <= at for r in seen[0]) for at in planted[:4]}) > 1


class FullDisk(io.BytesIO):
    """A temporary file on a disk with no room left."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_no_room_for_the_event_logs_reads_the_ledger_in_one_process(pipeline_dir, monkeypatch,
                                                                    tmp_path, caplog):
    args, _ = planted_ledger(pipeline_dir, tmp_path, [0.02, 0.5, 0.98], {})
    seen = ranges_seen(monkeypatch)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    serial = stage_bytes(tmp_path, [*args, "profile"], PROFILE_OUTPUTS)
    # two workers on any machine, whose event logs find no room
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    monkeypatch.setattr(tempfile, "TemporaryFile", FullDisk)
    with caplog.at_level("WARNING"):
        assert stage_bytes(tmp_path, [*args, "profile"], PROFILE_OUTPUTS) == serial
    assert [len(ranges) for ranges in seen] == [1, 2]
    assert [m for m in caplog.messages if "ledger ranges failed" in m] == [
        f"profile: ledger ranges failed ([Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}); "
        "reading the ledger in one process"]


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
