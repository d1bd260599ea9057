"""The benchmark's traced run wraps program functions and methods by name
(``perfbench/tracing.py`` ``SPANS``); a rename must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_every_span_target_resolves():
    spans = load_spans()
    assert spans
    unresolved = []
    for module_name, attr, _ in spans:
        module = importlib.import_module(module_name)
        owner, _, name = attr.rpartition(".")
        if owner:
            # install() patches the method found in the class's own __dict__
            target = vars(getattr(module, owner, object)).get(name)
        else:
            target = getattr(module, name, None)
        if not callable(target):
            unresolved.append(f"{module_name}:{attr}")
    assert unresolved == []
