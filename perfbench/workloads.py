"""The benchmark's workloads, the child-process runner and the input cache.

Every workload drives the ``amlprofiler`` CLI the way a user does.  Its
inputs come from the CLI's own ``synth`` stage, run outside every timed
region and cached under ``.work/inputs`` by generator config and seed.

The ``--seed`` of a run picks one of ``VARIANTS`` generator seeds, so each
seed a run can be given maps onto a population whose reference digest is
committed in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
WORK = PERFBENCH / ".work"
PIPELINE_CONFIG = ROOT / "configs" / "pipeline.example.json"
LEDGER_CONFIG = PERFBENCH / "ledger.json"

VARIANTS = 8
STAGE_TIMEOUT_S = 170.0

PIPELINE_STAGES = (
    ("profile", ("profile", "--assume-sorted")),
    ("sweep", ("sweep",)),
    ("cluster", ("cluster",)),
    ("rules", ("rules", "--algorithm", "part")),
    ("eval", ("eval", "--algorithm", "part", "--split-mode", "cross_validation")),
    ("grid_numeric", ("grid", "--attribute-kind", "numeric")),
    ("grid_nominal", ("grid", "--attribute-kind", "nominal")),
    ("export_kb", ("export-kb",)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str  # pipeline config passed to every stage, relative to the checkout
    synth_args: tuple[str, ...]  # arguments after ``synth``
    base_seed: int  # generator seed of variant 0
    posting_order: bool  # reorder the ledger by timestamp so customers interleave
    # Scale stage wall times by the calibration (see run.py).  Ledger parsing
    # slows with the calibration on a slow-CPU spell; the pipeline's numeric
    # stages slow far less, so scaling them would swap one error for another.
    scale_walls: bool
    stages: tuple[tuple[str, tuple[str, ...]], ...]

    def variant(self, seed: int) -> int:
        return seed % VARIANTS

    def generator_seed(self, seed: int) -> int:
        return self.base_seed + self.variant(seed)

    def config_path(self) -> Path:
        return ROOT / self.config

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "Workload":
        return Workload(
            name=obj["name"],
            why=obj["why"],
            config=obj["config"],
            synth_args=tuple(obj["synth_args"]),
            base_seed=int(obj["base_seed"]),
            posting_order=bool(obj["posting_order"]),
            scale_walls=bool(obj["scale_walls"]),
            stages=tuple((s, tuple(argv)) for s, argv in obj["stages"]),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ledger_stream",
            why=(
                "heavy-flow ledger grouped by customer, profiled with --assume-sorted: "
                "ingest, profiling and manifest on the streaming FIFO path"
            ),
            config="perfbench/ledger.json",
            synth_args=(),
            base_seed=99,
            posting_order=False,
            scale_walls=True,
            stages=(("profile", ("profile", "--assume-sorted")),),
        ),
        Workload(
            name="ledger_buffered",
            why=(
                "the same rows in timestamp posting order, profiled with the default "
                "buffered FIFO path, which holds every event and sorts after the stream"
            ),
            config="perfbench/ledger.json",
            synth_args=(),
            base_seed=99,
            posting_order=True,
            scale_walls=True,
            stages=(("profile", ("profile",)),),
        ),
        Workload(
            name="pipeline_2k",
            why=(
                "README quick-start sequence on the bundled population at 2,000 customers: "
                "validity, rules and evaluation dominate, ingest is small"
            ),
            config="configs/pipeline.example.json",
            synth_args=("--n-customers", "2000"),
            base_seed=20140101,
            posting_order=False,
            scale_walls=False,
            stages=PIPELINE_STAGES,
        ),
    )
}


def check_checkout() -> None:
    """Raise when the checkout lacks the program or the files a workload needs."""
    needed = [SRC / "amlprofiler" / "cli.py", PIPELINE_CONFIG, LEDGER_CONFIG]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise FileNotFoundError(f"checkout lacks {', '.join(missing)}")


def child_env() -> dict:
    """Environment of every program process.

    ``TZ`` is pinned because profiles read naive timestamps in host local
    time, and the reference digests were recorded under UTC.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TZ"] = "UTC"
    return env


@dataclass
class ProcessResult:
    wall_s: float
    peak_rss_mb: float
    returncode: int


def run_process(argv: list[str], log_path: Path, timeout: float = STAGE_TIMEOUT_S) -> ProcessResult:
    """Run one child to completion; wall time, its own peak RSS and exit code.

    ``os.wait4`` returns the rusage of exactly this child, so the peak RSS
    is the stage's own and not the maximum over every child so far.
    """
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessResult(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_argv(config: Path, out_dir: Path, *args: str) -> list[str]:
    return [sys.executable, "-m", "amlprofiler.cli", "--config", str(config), "--out-dir", str(out_dir), *args]


def code_digest() -> str:
    """Short sha256 over the program's source files.

    Keys records that hold for one version of the program only, such as the
    artifact hashes of the first run of some inputs.
    """
    digest = hashlib.sha256()
    for path in sorted((SRC / "amlprofiler").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def reorder_by_timestamp(path: Path) -> None:
    """Stable sort of the ledger's data rows by timestamp (bank posting order).

    Generated rows carry no quoted fields, so the timestamp is the third
    comma-separated field, and ISO timestamps of one width sort as text.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline()
        rows = fh.readlines()
    rows.sort(key=lambda line: line.split(",", 3)[2])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        fh.writelines(rows)


@dataclass(frozen=True)
class Inputs:
    directory: Path
    rows: int
    hashes: dict  # file name -> sha256

    def link_into(self, out_dir: Path) -> None:
        for name in self.hashes:
            target = out_dir / name
            try:
                os.link(self.directory / name, target)
            except OSError:
                shutil.copyfile(self.directory / name, target)


INPUT_FILES = ("transactions.csv", "register.csv")


def _cache_key(workload: Workload, seed: int) -> str:
    gen = {
        "config": sha256_file(workload.config_path()),
        "synth_args": list(workload.synth_args),
        "seed": workload.generator_seed(seed),
    }
    return hashlib.sha256(json.dumps(gen, sort_keys=True).encode()).hexdigest()[:16]


def prepare_inputs(workload: Workload, seed: int) -> Inputs:
    """The workload's generated ledger and register, built once per config and seed."""
    key = _cache_key(workload, seed)
    base = _cached(WORK / "inputs" / key, lambda tmp: _generate(workload, seed, tmp))
    if not workload.posting_order:
        return base
    return _cached(WORK / "inputs" / f"{key}-posting", lambda tmp: _derive_posting(base, tmp))


def _generate(workload: Workload, seed: int, tmp: Path) -> None:
    argv = cli_argv(
        workload.config_path(), tmp, "--seed", str(workload.generator_seed(seed)), "synth", *workload.synth_args
    )
    result = run_process(argv, tmp / "synth.log")
    if result.returncode != 0:
        raise RuntimeError(f"synth failed for {workload.name} seed {seed}; see {tmp / 'synth.log'}")


def _derive_posting(base: Inputs, tmp: Path) -> None:
    for name in INPUT_FILES:
        shutil.copyfile(base.directory / name, tmp / name)
    reorder_by_timestamp(tmp / "transactions.csv")


def _cached(directory: Path, build) -> Inputs:
    meta_path = directory / "inputs.json"
    if not meta_path.exists():
        tmp = directory.with_name(directory.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        build(tmp)
        with open(tmp / "transactions.csv", "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        meta = {"rows": rows, "hashes": {name: sha256_file(tmp / name) for name in INPUT_FILES}}
        (tmp / "inputs.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
        shutil.rmtree(directory, ignore_errors=True)
        tmp.rename(directory)
    meta = json.loads(meta_path.read_text())
    return Inputs(directory, int(meta["rows"]), dict(meta["hashes"]))
