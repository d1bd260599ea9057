"""Per-stage manifests: inputs, outputs, seeds, and parameter values.

Every artifact hash is recorded so a rerun can be checked for byte
identity.  Manifests carry no wall-clock data; a stage rerun with the same
inputs must reproduce its manifest exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Sequence


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path: Path | str, obj) -> None:
    """The one JSON artifact format: sorted keys, 2-space indent, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(
    out_dir: Path | str,
    stage: str,
    *,
    params: dict,
    inputs: Sequence[Path | str] = (),
    outputs: Sequence[Path | str] = (),
) -> Path:
    manifest = {
        "stage": stage,
        "params": params,
        "inputs": {Path(p).name: sha256_file(p) for p in inputs},
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
    }
    path = Path(out_dir) / f"{stage}.manifest.json"
    write_json(path, manifest)
    return path


def read_manifest(out_dir: Path | str, stage: str) -> dict:
    with open(Path(out_dir) / f"{stage}.manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)
