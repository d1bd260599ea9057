"""The README's "Library use" example runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), "README.md", "exec"), {"__name__": "readme_example"})
    assert re.fullmatch(r"\d+ rules\n", capsys.readouterr().out)
    assert (tmp_path / "runs" / "lib-demo" / "transactions.csv").exists()
