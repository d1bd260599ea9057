"""Config fuzz gate: whatever the config file says, a stage exits 0 or 2, never 1.

Hypothesis mutates ``configs/pipeline.example.json``: it drops keys,
misspells them, and puts values of the wrong JSON type, nulls and numbers
out of range in their place.  Each example runs one stage through
``cli.main`` on a fresh copy of a small pipeline directory, so exit 1 (an
uncaught exception) is the only failure.
"""

import copy
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from amlprofiler.cli import main

EXAMPLE = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "pipeline.example.json").read_text()
)
STAGES = [
    ["synth", "--n-customers", "40"],
    ["profile"],
    ["sweep"],
    ["cluster"],
    ["rules"],
    ["eval", "--split-mode", "cross_validation"],
    ["grid", "--attribute-kind", "nominal"],
    ["grid", "--sweep"],
    ["export-kb"],
]


def key_paths(obj, prefix=()):
    """The path of every key in the nested JSON object ``obj``."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


PATHS = list(key_paths(EXAMPLE))
# Small integers only: a large but valid run count or fold count is slow, not wrong.
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.integers(-2, 12), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-2, 2), max_size=2),
)


@st.composite
def mutated_configs(draw):
    config = copy.deepcopy(EXAMPLE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS))
        parent = config
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        key = path[-1]
        if not isinstance(parent, dict) or key not in parent:
            continue  # an earlier mutation removed it
        action = draw(st.sampled_from(["drop", "misspell", "replace"]))
        value = parent.pop(key)
        if action == "misspell":
            parent[key[:-1] if len(key) > 1 else key + "x"] = value
        elif action == "replace":
            parent[key] = draw(VALUES)
    return config


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Every upstream artifact of every stage, from the unmutated example config."""
    out = tmp_path_factory.mktemp("fuzz")
    (out / "config.json").write_text(json.dumps(EXAMPLE))
    args = ["--config", str(out / "config.json"), "--out-dir", str(out)]
    for stage in (STAGES[0], ["profile"], ["cluster"], ["rules"]):
        assert main([*args, *stage]) == 0
    return out


def exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("stage", STAGES, ids=lambda stage: "-".join(stage))
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=mutated_configs())
def test_mutated_config_exits_zero_or_two(pipeline_dir, stage, config):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(pipeline_dir, out)
        (out / "config.json").write_text(json.dumps(config))
        code = exit_code(["--config", str(out / "config.json"), "--out-dir", str(out), *stage])
    assert code in (0, 2), f"{stage} exited {code} with config {json.dumps(config)}"
