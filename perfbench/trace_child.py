"""Traced run of one workload pass, in-process through ``amlprofiler.cli.main``.

Usage: python3 perfbench/trace_child.py SPEC_JSON OUT_JSON

The spec names the workload, the pass directory (inputs already linked in)
and a scratch directory for a traced ``synth``.  Each stage runs twice in
this process: untraced, then with spans installed; the pair gives the
tracing overhead.  The span trees are kept in memory and written to
OUT_JSON once the pass ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import Workload, reorder_by_timestamp


def _main_rc(main, argv: list[str]) -> int:
    try:
        return int(main(argv) or 0)
    except SystemExit as exc:  # StageError exits with a code
        return exc.code if isinstance(exc.code, int) else 1


def run(spec: dict) -> dict:
    from amlprofiler.cli import main

    workload = Workload.from_json(spec["workload"])
    config = spec["config"]
    pass_dir = Path(spec["pass_dir"])
    synth_dir = Path(spec["synth_dir"])
    tracer = tracing.Tracer()
    stages = {}

    def traced(stage: str, argv: list[str]) -> None:
        tracer.reset(stage)
        patches = tracing.install(tracer)
        try:
            started = time.perf_counter()
            rc = _main_rc(main, argv)
            wall = time.perf_counter() - started
        finally:
            tracing.uninstall(patches)
        stages[stage] = {
            "wall_s": wall,
            "returncode": rc,
            "tree": tracer.root.to_json(),
            "counters": dict(tracer.counters),
        }

    synth_argv = ["--config", config, "--out-dir", str(synth_dir), "--seed", str(spec["generator_seed"]),
                  "synth", *workload.synth_args]
    traced("synth", synth_argv)
    if workload.posting_order:
        reorder_by_timestamp(synth_dir / "transactions.csv")

    for stage, args in workload.stages:
        argv = ["--config", config, "--out-dir", str(pass_dir), *args]
        started = time.perf_counter()
        rc_plain = _main_rc(main, argv)
        untraced = time.perf_counter() - started
        traced(stage, argv)
        stages[stage]["untraced_s"] = untraced
        stages[stage]["returncode"] = max(stages[stage]["returncode"], rc_plain)
        if args[0] == "grid":
            grid_csv = pass_dir / f"grid_{args[args.index('--attribute-kind') + 1]}.csv"
            stages[stage]["grid_errors"] = checks.grid_rows(grid_csv)[1] if grid_csv.exists() else 0
        if stages[stage]["returncode"] != 0:
            break
    return {"stages": stages}


if __name__ == "__main__":
    spec_path, out_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        result = run(json.load(fh))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
