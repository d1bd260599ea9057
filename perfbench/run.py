"""Benchmark of the amlprofiler CLI: end-to-end runs and a traced per-layer run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

``--trace 0`` runs the workload's stages as users do, one fresh
``python -m amlprofiler.cli`` process per stage, repeating whole passes
until ``--seconds`` of stage time is spent (at least one pass), and reports
the end-to-end metrics as medians over the passes.  ``setup_s``, and on
workloads that ask for it the stage times, are scaled to a reference CPU
speed by a calibration process timed between the passes.  ``--trace 1`` runs one
pass in-process through ``amlprofiler.cli.main`` with spans around the
program's public functions and reports per-layer metrics per stage.

Both modes check every output against ``reference.json`` and against the
artifacts of the first run of the same inputs and the same program source
in this checkout.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a check failed and 2
when the checkout cannot run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from workloads import (
    INPUT_FILES,
    PERFBENCH,
    SRC,
    WORK,
    WORKLOADS,
    ProcessResult,
    Workload,
    check_checkout,
    cli_argv,
    code_digest,
    prepare_inputs,
    run_process,
)

REFERENCE = PERFBENCH / "reference.json"
SETUP_SAMPLES = 4
# The calibration: a fresh interpreter importing the program's third-party
# dependencies.  It is fixed work outside the program, of the kind every
# stage process starts with.  On a shared VM, imports and ledger parsing run
# up to twice as slow for seconds to minutes at a time; the calibration
# slows with them, so scaling by it cancels most of that.
CALIBRATE_ARGV = [sys.executable, "-c", "import numpy, scipy.stats"]
# Its wall time at the reference speed that reported times are scaled to.
# On the 2-vCPU x86_64 VM (CPython 3.11) the benchmark was built on it took
# 0.8-1.6 s.
REFERENCE_CALIBRATION_S = 1.0
TRACE_TIMEOUT_S = 175.0

# End-to-end metrics every workload reports (BENCHMARK.json "end_to_end").
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed but not in BENCHMARK.json: rows_per_s is rows / wall_s on the
# ledgers and rests on one short process in the pipeline; a stage's wall
# time exists only on workloads that run the stage.
STAGE_WALLS = {"sweep_s": "sweep", "eval_s": "eval", "grid_numeric_s": "grid_numeric", "grid_nominal_s": "grid_nominal"}

# Per-layer metrics per stage (BENCHMARK.json "per_layer"); every stage
# also reports wall_s and cli.other_s.  A stage the workload does not run
# reports 0.
_GRID_LAYERS = (
    "profiling.read_s", "rules.part_s", "rules.tree_s", "rules.ripper_s", "rules.inductions",
    "rules.rules_induced", "rules.predict_s", "evaluation.self_s",
    "evaluation.scored_rows_per_test_row", "evaluation.cells_failed",
)
LAYERS = {
    "synth": ("synthgen.generate_s",),
    "profile": (
        "ingest.parse_s", "ingest.filter_s", "ingest.rows_accepted", "ingest.rows_rejected",
        "ingest.rows_filtered", "profiling.aggregate_s", "profiling.post_stream_s",
        "profiling.write_s", "profiling.discretize_s", "manifest.hash_s", "manifest.bytes_hashed",
    ),
    "sweep": (
        "profiling.read_s", "clustering.kmeans_fit_s", "clustering.kmeans_fits",
        "clustering.lloyd_iterations", "clustering.seed_s", "clustering.assign_s",
        "validity.silhouette_s", "validity.vrc_s", "validity.agreement_s", "validity.pairwise_s",
    ),
    "cluster": (
        "profiling.read_s", "clustering.kmeans_fit_s", "clustering.kmeans_fits",
        "clustering.lloyd_iterations", "clustering.seed_s", "clustering.assign_s",
        "profiling.write_s", "profiling.discretize_s",
    ),
    "rules": ("profiling.read_s", "rules.part_s", "rules.inductions", "rules.rules_induced"),
    "eval": (
        "profiling.read_s", "rules.part_s", "rules.inductions", "rules.predict_s",
        "evaluation.self_s", "evaluation.scored_rows_per_test_row",
    ),
    "grid_numeric": _GRID_LAYERS,
    "grid_nominal": _GRID_LAYERS,
    "export_kb": ("rules.convert_s",),
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_hashed"):
        return "bytes"
    if name.endswith("_per_test_row"):
        return "ratio"
    return "count"


def per_layer_catalogue() -> dict[str, str]:
    names = []
    for stage, layers in LAYERS.items():
        names += [f"{stage}.wall_s", f"{stage}.cli.other_s"] + [f"{stage}.{m}" for m in layers]
    names += ["trace.wall_s", "trace.overhead_s"]
    return {name: _unit(name) for name in names}


PER_LAYER = per_layer_catalogue()


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def result(self, names: dict[str, str]) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": {n: {"value": self.metrics[n], "unit": u} for n, u in names.items()},
        }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def compile_package(log: Path) -> None:
    """Compile the package's bytecode, so that no import sample pays for it."""
    if run_process([sys.executable, "-m", "compileall", "-q", str(SRC / "amlprofiler")], log).returncode != 0:
        raise RuntimeError(f"compiling amlprofiler failed; see {log}")


def sample_time(argv: list[str], log: Path) -> float:
    """Wall time of one helper process (an import or a calibration)."""
    result = run_process(argv, log)
    if result.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} failed; see {log}")
    return result.wall_s


IMPORT_ARGV = [sys.executable, "-c", "import amlprofiler.cli"]


def run_pass(workload: Workload, inputs, pass_dir: Path, outcome: Outcome) -> list[tuple[str, ProcessResult]]:
    """One pass of the workload's stages, one process each."""
    fresh_dir(pass_dir)
    inputs.link_into(pass_dir)
    config = workload.config_path()
    runs = []
    for stage, args in workload.stages:
        result = run_process(cli_argv(config, pass_dir, *args), pass_dir / f"{stage}.log")
        outcome.attempted += 1
        runs.append((stage, result))
        if result.returncode != 0:
            outcome.fail(f"stage {stage} exited with {result.returncode}; see {pass_dir / (stage + '.log')}")
            return runs
    cells, errors = checks.grid_cells(pass_dir)
    outcome.attempted += cells
    for _ in range(errors):
        outcome.fail("grid row reads ERROR:")
    return runs


def check_outputs(workload: Workload, seed: int, inputs, pass_dir: Path, reference, outcome: Outcome) -> dict:
    """Reference digest and first-run artifact hashes; returns this pass's hashes."""
    hashes = checks.artifact_hashes(pass_dir, set(INPUT_FILES))
    if reference is not None:
        expected = reference.get(workload.name, {}).get(str(workload.variant(seed)))
        if expected is None:
            outcome.fail(f"no reference digest for {workload.name} variant {workload.variant(seed)}")
        else:
            diffs = checks.compare(checks.digest(pass_dir), expected)
            if diffs:
                outcome.fail("output differs from the reference: " + "; ".join(diffs[:5]))
    # Keyed by the program source too: another commit may move float bits
    # within the reference tolerance.
    record = WORK / "hashes" / f"{workload.name}-{inputs.directory.name}-{code_digest()}.json"
    if record.exists():
        first = json.loads(record.read_text())
        changed = sorted(k for k in set(first) | set(hashes) if first.get(k) != hashes.get(k))
        if changed:
            outcome.fail(f"artifacts differ from the first run of these inputs and code: {', '.join(changed)}")
    elif outcome.failed == 0:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    return hashes


def run_untraced(workload: Workload, seed: int, seconds: float, reference) -> Outcome:
    outcome = Outcome()
    inputs = prepare_inputs(workload, seed)
    setup_log = fresh_dir(WORK / "setup") / "import.log"
    compile_package(setup_log)
    setup: list[float] = []
    calibration: list[float] = []
    run_dir = fresh_dir(WORK / "runs" / workload.name)
    walls: dict[str, list[float]] = {stage: [] for stage, _ in workload.stages}
    rss: dict[str, list[float]] = {stage: [] for stage, _ in workload.stages}
    passes = 0
    spent = 0.0
    first_hashes = None
    while not passes or spent < seconds:
        # Import and calibration samples interleave with the passes, so that
        # they see the same spells of CPU speed as the stages.
        setup.append(sample_time(IMPORT_ARGV, setup_log))
        calibration.append(sample_time(CALIBRATE_ARGV, setup_log))
        pass_dir = run_dir / f"pass-{passes}"
        runs = run_pass(workload, inputs, pass_dir, outcome)
        passes += 1
        for stage, result in runs:
            walls[stage].append(result.wall_s)
            rss[stage].append(result.peak_rss_mb)
            spent += result.wall_s
        if outcome.failed:
            break
        if first_hashes is None:
            first_hashes = check_outputs(workload, seed, inputs, pass_dir, reference, outcome)
        else:
            if checks.artifact_hashes(pass_dir, set(INPUT_FILES)) != first_hashes:
                outcome.fail(f"pass {passes - 1} artifacts differ from pass 0 of this run")
            shutil.rmtree(pass_dir)
    while len(setup) < SETUP_SAMPLES:
        setup.append(sample_time(IMPORT_ARGV, setup_log))
        calibration.append(sample_time(CALIBRATE_ARGV, setup_log))

    # Each stage's median over its runs, scaled to the reference speed if the
    # workload asks for it; a pass's wall time is their sum.
    speed = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    wall_speed = speed if workload.scale_walls else 1.0
    ran = {stage: statistics.median(w) * wall_speed for stage, w in walls.items() if w}
    m = outcome.metrics
    m["wall_s"] = sum(ran.values())
    m["setup_s"] = statistics.median(setup) * speed
    m["peak_rss_mb"] = max(statistics.median(r) for r in rss.values() if r)
    m["rows_per_s"] = inputs.rows / ran["profile"]
    outcome.units = END_TO_END | {"rows_per_s": "rows/s"}
    for name, stage in STAGE_WALLS.items():
        if stage in ran:
            m[name] = ran[stage]
            outcome.units[name] = "s"
    outcome.notes += [
        f"{passes} pass(es), {spent:.1f} s of stage time, {inputs.rows} ledger rows",
        f"measured (unscaled): wall {m['wall_s'] / wall_speed:.3f} s, setup samples "
        f"{', '.join(f'{t:.3f}' for t in setup)} s, calibration samples "
        f"{', '.join(f'{t:.3f}' for t in calibration)} s (scale {speed:.4f})",
    ]
    return outcome


def run_traced(workload: Workload, seed: int, reference) -> Outcome:
    outcome = Outcome()
    inputs = prepare_inputs(workload, seed)
    run_dir = fresh_dir(WORK / "trace" / workload.name)
    pass_dir = fresh_dir(run_dir / "pass")
    inputs.link_into(pass_dir)
    spec = {
        "workload": workload.to_json(),
        "config": str(workload.config_path()),
        "pass_dir": str(pass_dir),
        "synth_dir": str(fresh_dir(run_dir / "synth")),
        "generator_seed": workload.generator_seed(seed),
    }
    (run_dir / "spec.json").write_text(json.dumps(spec, indent=1))
    argv = [sys.executable, str(PERFBENCH / "trace_child.py"), str(run_dir / "spec.json"), str(run_dir / "spans.json")]
    child = run_process(argv, run_dir / "trace.log", timeout=TRACE_TIMEOUT_S)
    if child.returncode != 0:
        outcome.attempted += 1
        outcome.fail(f"traced run exited with {child.returncode}; see {run_dir / 'trace.log'}")
        return outcome
    stages = json.loads((run_dir / "spans.json").read_text())["stages"]

    metrics = {}
    traced_total = untraced_total = 0.0
    for stage, info in stages.items():
        outcome.attempted += 1 if stage == "synth" else 2
        if info["returncode"] != 0:
            outcome.fail(f"traced stage {stage} exited with {info['returncode']}")
        stage_m = tracing.stage_metrics(stage, info["tree"], info["counters"], info["wall_s"])
        stage_m[f"{stage}.wall_s"] = info["wall_s"]
        if stage != "synth":
            stage_m[f"{stage}.untraced_s"] = info["untraced_s"]
            stage_m[f"{stage}.trace_overhead_s"] = info["wall_s"] - info["untraced_s"]
            traced_total += info["wall_s"]
            untraced_total += info["untraced_s"]
        if "grid_errors" in info:
            stage_m[f"{stage}.evaluation.cells_failed"] = info["grid_errors"]
        error = tracing.partition_error(stage, stage_m, info["wall_s"])
        if error > 1e-6 * max(1.0, info["wall_s"]):
            outcome.fail(f"stage {stage}: self times + cli.other_s miss the wall time by {error:.3g} s")
        negative = tracing.negative_times(stage, stage_m)
        if negative:
            outcome.fail(f"stage {stage}: negative self times (overlapping spans): {', '.join(negative)}")
        metrics.update(stage_m)
    metrics["trace.wall_s"] = traced_total
    metrics["trace.overhead_s"] = traced_total - untraced_total

    cells, errors = checks.grid_cells(pass_dir)
    outcome.attempted += cells
    for _ in range(errors):
        outcome.fail("grid row reads ERROR:")
    synth_hashes = checks.artifact_hashes(run_dir / "synth", set())
    for name, expected in inputs.hashes.items():
        if synth_hashes.get(name) != expected:
            outcome.fail(f"traced synth wrote a different {name} than the cached input")
    if len(stages) == len(workload.stages) + 1 and outcome.failed == 0:
        check_outputs(workload, seed, inputs, pass_dir, reference, outcome)

    (run_dir / "metrics.json").write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    outcome.metrics = dict.fromkeys(PER_LAYER, 0) | metrics
    outcome.units = dict(PER_LAYER)
    outcome.notes.append(f"span trees in {run_dir / 'spans.json'}, all metrics in {run_dir / 'metrics.json'}")
    return outcome


def report(workload: Workload, seed: int, trace: bool, outcome: Outcome) -> list[str]:
    lines = [f"{workload.name} seed {seed} (variant {workload.variant(seed)}) trace {int(trace)}"]
    lines += [f"  {note}" for note in outcome.notes]
    shown = outcome.units if not trace else {k: u for k, u in outcome.units.items() if outcome.metrics.get(k)}
    for name, unit in shown.items():
        lines.append(f"  {name:<48} {outcome.metrics[name]:.6g} {unit}")
    ratio = outcome.failed / max(outcome.attempted, 1)
    lines.append(f"  {'failed_ratio':<48} {ratio:.6g} ({outcome.failed} of {outcome.attempted} operations)")
    lines += [f"  FAILED: {p}" for p in outcome.problems]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reference = load_reference()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = WORKLOADS[name]
        started = time.perf_counter()
        if args.trace:
            outcome = run_traced(workload, args.seed, reference)
        else:
            outcome = run_untraced(workload, args.seed, args.seconds, reference)
        print("\n".join(report(workload, args.seed, bool(args.trace), outcome)), flush=True)
        print(f"  ({time.perf_counter() - started:.1f} s including input generation and checks)")
        results[name] = outcome.result(PER_LAYER if args.trace else END_TO_END)
        if args.workload == "all":
            results[name]["metrics"] = {k: {"value": outcome.metrics[k], "unit": u} for k, u in outcome.units.items()}

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
