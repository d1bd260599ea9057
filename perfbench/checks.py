"""Output checks: a digest of a pass's artifacts, compared with a reference.

Integers, ids, labels, recommendations, rule texts, the knowledge base and
grid rule counts must match exactly.  Floats (profile values, ``sweep.csv``
and the grid and evaluation float columns) must match within ``REL_TOL``
relative (plus ``ABS_TOL``), because a speed-up may move float bits.

Profile floats are digested per column as the sum, the sum of squares, a
position-weighted sum, the minimum and the maximum.  Profile values are
non-negative, so when every value is within ``REL_TOL`` of its reference,
every statistic is too; one value moved by a relative ``d`` moves its
column sum by ``d * value / column sum``, which the check catches.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12

GRID_EXACT = ("algorithm", "attribute_kind", "min_instances", "rep_flag", "split_mode", "number_of_rules")
GRID_FLOATS = ("percent_correct", "kappa", "roc_area")
SWEEP_EXACT = ("k", "row_type", "run")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _float(text: str):
    return None if text == "" else float(text)


def _profile_stats(path: Path) -> tuple[str, dict, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    ids = [r[0] for r in rows]
    label_col = header.index("label") if "label" in header else None
    n = len(rows)
    stats = {}
    for j, name in enumerate(header):
        if j == 0 or j == label_col:
            continue
        col = [float(r[j]) for r in rows]
        stats[name] = [
            math.fsum(col),
            math.fsum(v * v for v in col),
            math.fsum(v * (i + 1) / n for i, v in enumerate(col)),
            min(col),
            max(col),
        ]
    labels = [r[label_col] for r in rows] if label_col is not None else []
    return _sha("\n".join(ids).encode()), stats, labels


def _table(path: Path, exact: tuple[str, ...], floats: tuple[str, ...]) -> dict:
    rows = _rows(path)
    return {
        "exact": [[r[c] for c in exact] for r in rows],
        "floats": [[_float(r[c]) for c in floats] for r in rows],
    }


def digest(pass_dir: Path) -> dict:
    """Digest of whichever pipeline artifacts the pass produced."""
    d: dict = {"inputs": {n: _sha((pass_dir / n).read_bytes()) for n in ("transactions.csv", "register.csv")}}
    meta = json.loads((pass_dir / "profiles.schema.json").read_text())["meta"]
    d["rows"] = {k: meta[k] for k in ("rows_accepted", "rows_rejected", "rows_filtered_out")}
    d["customers"], d["profiles"], _ = _profile_stats(pass_dir / "profiles.csv")
    if (pass_dir / "labeled_profiles.csv").exists():
        _, _, labels = _profile_stats(pass_dir / "labeled_profiles.csv")
        d["labels"] = _sha("\n".join(labels).encode())
    for name in ("sweep_recommendation.json", "ruleset.txt", "knowledge_base.json"):
        if (pass_dir / name).exists():
            d[name] = _sha((pass_dir / name).read_bytes())
    if (pass_dir / "sweep.csv").exists():
        d["sweep.csv"] = _table(
            pass_dir / "sweep.csv", SWEEP_EXACT,
            ("sse", "silhouette", "vrc", "rand_stability", "van_dongen_stability"),
        )
    for name in ("evaluation_row.csv", "grid_numeric.csv", "grid_nominal.csv"):
        if (pass_dir / name).exists():
            d[name] = _table(pass_dir / name, GRID_EXACT, GRID_FLOATS)
    return d


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def compare(actual, expected, path: str = "") -> list[str]:
    """Every difference between two digests, as readable lines."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual:
                out.append(f"{path}/{key}: missing")
            elif key not in expected:
                out.append(f"{path}/{key}: not in the reference")
            else:
                out += compare(actual[key], expected[key], f"{path}/{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: {len(actual)} entries, reference has {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        return [] if _close(float(actual), expected) else [f"{path}: {actual!r} != {expected!r} (rel tol {REL_TOL})"]
    return [] if actual == expected and type(actual) is type(expected) else [f"{path}: {actual!r} != {expected!r}"]


def artifact_hashes(pass_dir: Path, skip: set[str]) -> dict[str, str]:
    """sha256 of every file a pass wrote (inputs and logs excluded)."""
    return {
        p.name: _sha(p.read_bytes())
        for p in sorted(pass_dir.iterdir())
        if p.is_file() and p.name not in skip and not p.name.endswith(".log")
    }


def grid_rows(path: Path) -> tuple[int, int]:
    """(cells run, cells whose row reads ERROR:) in one grid CSV."""
    rows = _rows(path)
    return len(rows), sum(1 for r in rows if r["number_of_rules"].startswith("ERROR:"))


def grid_cells(pass_dir: Path) -> tuple[int, int]:
    """``grid_rows`` summed over both grid CSVs of a pass."""
    counts = [grid_rows(pass_dir / n) for n in ("grid_numeric.csv", "grid_nominal.csv") if (pass_dir / n).exists()]
    return sum(c for c, _ in counts), sum(e for _, e in counts)
