"""The benchmark's traced run wraps program functions and methods by name
(``perfbench/tracing.py`` ``SPANS``); a rename must fail here, not only in a
traced benchmark run."""

import importlib
import importlib.util
import json
from pathlib import Path

from amlprofiler.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_tracing().SPANS
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


def test_traced_profile_reports_its_layers(tmp_path):
    """The profile layers of a traced run (parse, filter, aggregate) must get
    spans and the row counters must match the stage's own summary."""
    tracing = load_tracing()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "window": {"start": "2014-01-01", "end": "2014-12-31"},
        "filter_policy": {"excluded_txn_type_codes": [99]},
    }))
    args = ["--config", str(config), "--out-dir", str(tmp_path)]
    assert main([*args, "synth", "--n-customers", "60"]) == 0
    # one malformed row, so the rejection counter is exercised too
    with open(tmp_path / "transactions.csv", "a", encoding="utf-8") as fh:
        fh.write("cust_0000001,acc,not-a-time,1.00,credit,1,1,\n")

    tracer = tracing.Tracer()
    tracer.reset("profile")
    patches = tracing.install(tracer)
    try:
        assert main([*args, "profile"]) == 0
    finally:
        tracing.uninstall(patches)

    meta = json.loads((tmp_path / "profiles.schema.json").read_text())["meta"]
    assert meta["rows_filtered_out"] > 0 and meta["rows_rejected"] == 1
    assert tracer.counters["ingest.rows_accepted"] == meta["rows_accepted"]
    assert tracer.counters["ingest.rows_rejected"] == meta["rows_rejected"]
    assert tracer.counters["ingest.rows_filtered"] == meta["rows_filtered_out"]
    metrics = tracing.stage_metrics("profile", tracer.root.to_json(), tracer.counters, 0.0)
    for layer in ("ingest.parse", "ingest.filter", "profiling.aggregate", "profiling.post_stream"):
        assert metrics[f"profile.{layer}_s"] >= 0.0, layer
    calls = {}

    def walk(node):
        for child in node["children"]:
            calls[child["name"]] = calls.get(child["name"], 0) + child["count"]
            walk(child)

    walk(tracer.root.to_json())
    for layer in ("ingest.parse", "ingest.filter", "profiling.aggregate", "profiling.post_stream"):
        assert calls.get(layer, 0) > 0, layer
