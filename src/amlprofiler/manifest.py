"""Per-stage manifests, and the one JSON format of artifacts and config.

Every artifact hash is recorded so a rerun can be checked for byte
identity.  Manifests carry no wall-clock data; a stage rerun with the same
inputs must reproduce its manifest exactly.

``write_json`` writes a JSON file; ``from_json`` reads a JSON object into a
frozen dataclass.  A key that is not a field, a value that does not match
the field's annotation, and a ``TypeError`` or ``ValueError`` from the
constructor are each one ``ConfigError``.  A dataclass with its own
``from_json`` (``Window``) reads its fields itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import types
import typing
from pathlib import Path
from typing import Sequence, Union

from .ingest import ConfigError

_JSON_TYPES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
               type(None): "null"}


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


def check_keys(values, names, where: str) -> None:
    """Raise unless ``values`` is a JSON object with no key outside ``names``."""
    if not isinstance(values, dict):
        raise ConfigError(f"{where or 'the config'} must be a JSON object, got {values!r}")
    unknown = set(values) - set(names)
    if unknown:
        raise ConfigError(f"unknown {where or 'top-level'} options in config: {sorted(unknown)}")


def checked(build, where: str, **kwargs):
    """``build(**kwargs)``, with a ``TypeError`` or ``ValueError`` raised as a ``ConfigError``."""
    try:
        return build(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from None


def from_json(cls, obj, where: str):
    """The dataclass ``cls`` built from the JSON object ``obj`` found at ``where``."""
    check_keys(obj, [f.name for f in dataclasses.fields(cls)], where)
    if hasattr(cls, "from_json"):
        return cls.from_json(obj)
    hints = typing.get_type_hints(cls)
    kwargs = {k: _read(hints[k], v, f"{where}.{k}".lstrip(".")) for k, v in obj.items()}
    return checked(cls, where, **kwargs)


def _read(tp, value, where: str):
    """``value`` checked against the annotation ``tp``."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    if origin in (Union, types.UnionType):  # the first member that fits, else its error
        errors = []
        for member in args:
            try:
                return _read(member, value, where)
            except ConfigError as exc:
                errors.append(exc)
        raise errors[0]
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be a JSON object, got {value!r}")
        return {k: _read(args[1], v, f"{where}.{k}") for k, v in value.items()}
    if origin in (tuple, frozenset):  # tuple[X, ...] or frozenset[X]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return origin(_read(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int and abs(value) < 2**1000:
        value = float(value)
    if type(value) is not tp or (tp is float and not math.isfinite(value)):
        raise ConfigError(f"{where} must be {_JSON_TYPES[tp]}, got {value!r}")
    return value
