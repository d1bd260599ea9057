"""Record ``reference.json``: the output digest of every workload variant.

Usage: python3 perfbench/record_reference.py [WORKLOAD ...]

Runs one untimed pass of each named workload (default: all) for each of the
``VARIANTS`` generator seeds and stores ``checks.digest`` of its artifacts.
Entries of workloads not named are kept.  Record only from a commit whose
outputs are the intended reference behaviour.
"""

from __future__ import annotations

import json
import sys

import checks
from run import REFERENCE, Outcome, fresh_dir, load_reference, run_pass
from workloads import VARIANTS, WORK, WORKLOADS, check_checkout, prepare_inputs


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    digests = {}
    for variant in range(VARIANTS):
        inputs = prepare_inputs(workload, variant)
        pass_dir = fresh_dir(WORK / "record" / name)
        outcome = Outcome()
        run_pass(workload, inputs, pass_dir, outcome)
        if outcome.failed:
            raise SystemExit(f"{name} variant {variant}: {outcome.problems}")
        digests[str(variant)] = checks.digest(pass_dir)
        print(f"{name} variant {variant}: {inputs.rows} rows", flush=True)
    return digests


def main(names: list[str]) -> int:
    check_checkout()
    reference = load_reference()
    for name in names or list(WORKLOADS):
        reference[name] = record(name)
        REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
