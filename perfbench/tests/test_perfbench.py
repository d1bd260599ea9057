"""Tests of the benchmark itself, on tiny inputs.

Run from the checkout root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import negative_times, partition_error  # noqa: E402

TINY_SYNTH = {
    "ledger_stream": ("--n-customers", "20"),
    "ledger_buffered": ("--n-customers", "20"),
    "pipeline_2k": ("--n-customers", "300"),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("work")
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "WORK", path)
    patch.setattr(run, "WORK", path)
    patch.setattr(run, "SETUP_SAMPLES", 1)
    yield path
    patch.undo()


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], synth_args=TINY_SYNTH[name])


@pytest.fixture(scope="module")
def untraced(work):
    return {name: run.run_untraced(tiny(name), 3, 0.0, None) for name in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def traced(work, untraced):
    return {name: run.run_traced(tiny(name), 3, None) for name in workloads.WORKLOADS}


def test_benchmark_json_matches_the_code():
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(untraced, name):
    outcome = untraced[name]
    assert outcome.failed == 0, outcome.problems
    result = outcome.result(run.END_TO_END)
    assert result["correct"] and result["attempted"] >= 1
    for metric, unit in run.END_TO_END.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0
    assert outcome.units["rows_per_s"] == "rows/s" and outcome.metrics["rows_per_s"] > 0
    ran = {stage for stage, _ in workloads.WORKLOADS[name].stages}
    for metric, stage in run.STAGE_WALLS.items():
        assert (metric in outcome.metrics) == (stage in ran)
        if stage in ran:
            assert outcome.units[metric] == "s" and outcome.metrics[metric] > 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_emitted_with_units(traced, name):
    outcome = traced[name]
    assert outcome.failed == 0, outcome.problems
    result = outcome.result(run.PER_LAYER)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    for metric, unit in run.PER_LAYER.items():
        assert result["metrics"][metric]["unit"] == unit
    stages = ["synth"] + [stage for stage, _ in workloads.WORKLOADS[name].stages]
    for stage in stages:
        wall = outcome.metrics[f"{stage}.wall_s"]
        assert wall > 0
        assert partition_error(stage, outcome.metrics, wall) < 1e-6
        assert negative_times(stage, outcome.metrics) == []
    assert outcome.metrics["profile.ingest.parse_s"] > 0
    assert outcome.metrics["profile.ingest.rows_accepted"] > 0
    if name.startswith("ledger"):
        assert outcome.metrics["profile.ingest.rows_filtered"] > 0
    else:
        assert outcome.metrics["sweep.clustering.kmeans_fits"] == 90
        assert outcome.metrics["grid_numeric.rules.inductions"] > 0
        assert outcome.metrics["eval.evaluation.scored_rows_per_test_row"] == 4.0


def _pass_dir(work: Path, name: str) -> Path:
    return work / "runs" / name / "pass-0"


def _corrupt_copy(work: Path, tmp_path: Path, edit) -> Path:
    target = tmp_path / "pass"
    shutil.copytree(_pass_dir(work, "pipeline_2k"), target)
    edit(target)
    return target


def _edit_csv(path: Path, row: int, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row + 1][col] = change(rows[row + 1][col])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_check_passes_on_an_identical_pass(work, untraced):
    expected = checks.digest(_pass_dir(work, "pipeline_2k"))
    assert checks.compare(json.loads(json.dumps(expected)), expected) == []


def test_check_fails_on_a_flipped_label(work, untraced, tmp_path):
    expected = checks.digest(_pass_dir(work, "pipeline_2k"))
    flipped = _corrupt_copy(
        work, tmp_path,
        lambda d: _edit_csv(d / "labeled_profiles.csv", 5, "label", lambda v: str((int(v) + 1) % 7)),
    )
    diffs = checks.compare(checks.digest(flipped), expected)
    assert any(line.startswith("/labels") for line in diffs), diffs


def test_check_tolerates_float_noise_but_not_a_moved_value(work, untraced, tmp_path):
    expected = checks.digest(_pass_dir(work, "pipeline_2k"))
    noisy = _corrupt_copy(
        work, tmp_path / "noise",
        lambda d: _edit_csv(d / "profiles.csv", 7, "amount_avg", lambda v: repr(float(v) * (1 + 1e-13))),
    )
    assert checks.compare(checks.digest(noisy), expected) == []
    moved = _corrupt_copy(
        work, tmp_path / "moved",
        lambda d: _edit_csv(d / "profiles.csv", 7, "amount_avg", lambda v: repr(float(v) * (1 + 1e-5))),
    )
    diffs = checks.compare(checks.digest(moved), expected)
    assert any(line.startswith("/profiles/amount_avg") for line in diffs), diffs


def test_failed_check_makes_the_run_incorrect(work, untraced):
    workload = tiny("ledger_stream")
    good = checks.digest(_pass_dir(work, "ledger_stream"))
    bad = json.loads(json.dumps(good))
    bad["rows"]["rows_accepted"] += 1
    reference = {workload.name: {str(workload.variant(3)): bad}}
    outcome = run.run_untraced(workload, 3, 0.0, reference)
    assert outcome.failed == 1 and "reference" in outcome.problems[0]
    assert outcome.result(run.END_TO_END)["correct"] is False


def test_negative_self_time_is_reported():
    metrics = {"eval.wall_s": 2.0, "eval.cli.other_s": -0.5, "eval.rules.part_s": 2.5, "eval.trace_overhead_s": -0.1}
    assert partition_error("eval", metrics, 2.0) < 1e-12
    assert negative_times("eval", metrics) == ["eval.cli.other_s"]


def test_first_run_record_is_kept_per_program_source(work, untraced):
    workload = tiny("ledger_stream")
    records = list((work / "hashes").glob("ledger_stream-*.json"))
    assert len(records) == 1 and records[0].stem.endswith(workloads.code_digest())
    # A record of other code with other artifacts does not fail this run.
    records[0].with_name(records[0].stem[:-16] + "0" * 16 + ".json").write_text('{"profiles.csv": "x"}')
    assert run.run_untraced(workload, 3, 0.0, None).failed == 0
    # The record of this code does.
    records[0].write_text('{"profiles.csv": "x"}')
    outcome = run.run_untraced(workload, 3, 0.0, None)
    records[0].unlink()
    assert outcome.failed == 1 and "first run" in outcome.problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ledger_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
