"""Run-to-run spread of the end-to-end metrics, recorded in ``steadiness.json``.

Usage: python3 perfbench/steadiness.py [--workload NAME ...]

Runs ``run.py --trace 0`` once per seed 1-10 for each workload, with
BENCHMARK.json's ``run_seconds``, and records per metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  Each invocation
appends one set per workload; with two or more sets it also records how
much the latest median is worse than the previous set's.  The exit code is
1 when any spread or drift exceeds the metric's bound, setup_s included; a
spread above a third of the bound is flagged as wide.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time

from workloads import PERFBENCH, ROOT, WORKLOADS

RECORD = PERFBENCH / "steadiness.json"
SEEDS = list(range(1, 11))


def drift(previous: dict, current: dict, better: str) -> float:
    """How much the current median is worse than the previous one, as a share."""
    change = (current["median"] - previous["median"]) / previous["median"]
    return change if better == "lower" else -change


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "within_third_of_bound": spread < bound / 3,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    record["machine"] = f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}"
    record["run_seconds"] = spec["run_seconds"]
    ok = True
    for name in args.workload or list(WORKLOADS):
        samples: dict[str, list[float]] = {m: [] for m in bounds}
        started = time.perf_counter()
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(PERFBENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            for metric in bounds:
                samples[metric].append(result["metrics"][metric]["value"])
        entry = {"seeds": SEEDS, "elapsed_s": time.perf_counter() - started,
                 "metrics": {m: summarize(v, bounds[m]) for m, v in samples.items()}}
        sets = record.setdefault("workloads", {}).setdefault(name, [])
        if sets:
            for metric, s in entry["metrics"].items():
                s["drift_from_previous_set"] = drift(sets[-1]["metrics"][metric], s, better[metric])
                ok &= s["drift_from_previous_set"] <= s["bound"]
        sets.append(entry)
        for metric, s in entry["metrics"].items():
            flag = "ok" if s["within_third_of_bound"] else "wide" if s["spread"] <= s["bound"] else "OVER BOUND"
            ok &= s["spread"] <= s["bound"]
            shift = f"  drift {s['drift_from_previous_set']:+.4f}" if "drift_from_previous_set" in s else ""
            print(f"{name:<16} {metric:<12} median {s['median']:.6g}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}  {flag}{shift}", flush=True)
        RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
