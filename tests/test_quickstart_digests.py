"""Golden digests of the README quick start at 2,000 customers.

Every stage runs as its own ``python -m amlprofiler.cli`` process, so the
forked paths (ledger ranges, k-means fits, CV folds and grid cells) write
the artifacts.  The SHA-256 of every artifact and manifest must match the
digests in ``quickstart_digests.json``; a run on another Python or numpy
version compares too, and names the versions the digests were recorded on.

A change that moves float bits on purpose re-records the file with
``PYTHONPATH=src python tests/test_quickstart_digests.py --record``.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from amlprofiler.manifest import sha256_file

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "pipeline.example.json"
GOLDEN = Path(__file__).with_name("quickstart_digests.json")
STAGES = (
    ("synth", "--n-customers", "2000"),
    ("profile",),
    ("sweep",),
    ("cluster",),
    ("rules", "--algorithm", "part"),
    ("eval", "--algorithm", "part", "--split-mode", "cross_validation"),
    ("grid", "--attribute-kind", "numeric"),
    ("grid", "--attribute-kind", "nominal"),
    ("export-kb",),
)


def quick_start_digests(out: Path) -> dict[str, str]:
    """Run the quick start into ``out``; the digest of each file it wrote."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for stage in STAGES:
        argv = [sys.executable, "-m", "amlprofiler.cli", "--config", str(CONFIG),
                "--out-dir", str(out), *stage]
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, f"{' '.join(stage)} failed:\n{proc.stderr}"
    return {p.name: sha256_file(p) for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".json", ".txt")}


def test_quick_start_artifacts_match_the_recorded_digests(tmp_path):
    digests = quick_start_digests(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    recorded = golden["sha256"]
    differ = sorted(name for name in recorded.keys() | digests.keys()
                    if recorded.get(name) != digests.get(name))
    on = golden["recorded_on"]
    assert not differ, (
        f"differ from the digests recorded on Python {on['python']}, numpy {on['numpy']} "
        f"(this run: Python {platform.python_version()}, numpy {np.__version__}): "
        + ", ".join(differ))


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with tempfile.TemporaryDirectory() as tmp:
        digests = quick_start_digests(Path(tmp))
    golden = {"recorded_on": {"python": platform.python_version(), "numpy": np.__version__},
              "sha256": digests}
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"{len(digests)} digests -> {GOLDEN}")
