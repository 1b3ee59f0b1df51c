"""README.md stays true: its Python examples run and every exported name exists."""

import re
from pathlib import Path

import pytest

import altmerge

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(1, len(BLOCKS) + 1)])
def test_example_runs_from_the_repository_root(source, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(source, "README.md", "exec"), {"__name__": "readme_example"})


def test_every_exported_name_resolves():
    missing = [name for name in altmerge.__all__ if not hasattr(altmerge, name)]
    assert not missing
