"""README.md stays true: its examples run, its exported names exist, its sums add in order,
and one predicate states the float range."""

import ast
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


def test_no_package_sum_depends_on_the_python_version():
    # the builtin sum compensates float rounding from Python 3.12 on, and fsum always does
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "altmerge").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("sum", "fsum")
    ]
    assert not calls


def test_only_game_finite_compares_against_the_float_range():
    # game._finite is the one float-range rule; a comparison against the range's edge
    # anywhere else states it again
    def edge(node):
        return ast.unparse(node).lstrip("-").endswith(("float_info.max", "math.inf"))

    comparisons = []
    for path in sorted((ROOT / "src" / "altmerge").glob("*.py")):
        tree = ast.parse(path.read_text())
        rule = {id(node) for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                and (path.name, function.name) == ("game.py", "_finite")
                for node in ast.walk(function)}
        comparisons += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in rule
            and any(map(edge, [node.left, *node.comparators]))
        ]
    assert not comparisons
