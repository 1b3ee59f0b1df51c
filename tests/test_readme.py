"""README.md stays true: its examples run, its exported names exist, its sums add in order,
one predicate states the float range and one states positivity, one function raises on a value
that is not positive and one on a number of another type, one tells an integer, one constructor
skips ``__post_init__``, one function breaks a tie to the lowest index, only the planner reaches
past ``step`` and ``cost`` into the dynamics kernels, and no function keeps state in its module."""

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


def _nodes_outside(rule):
    """(file name, node) for every AST node of the package outside game.py's ``rule``."""
    for path in sorted((ROOT / "src" / "altmerge").glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
                  and (path.name, function.name) == ("game.py", rule)
                  for node in ast.walk(function)}
        yield from ((path.name, node) for node in ast.walk(tree) if id(node) not in inside)


def test_only_game_finite_compares_against_the_float_range():
    # game._finite is the one float-range rule; a comparison against the range's edge
    # anywhere else states it again
    def edge(node):
        return ast.unparse(node).lstrip("-").endswith(("float_info.max", "math.inf"))

    comparisons = [
        f"{name}:{node.lineno}" for name, node in _nodes_outside("_finite")
        if isinstance(node, ast.Compare) and any(map(edge, [node.left, *node.comparators]))
    ]
    assert not comparisons


def test_only_game_positive_pairs_finite_with_a_positivity_comparison():
    # game._positive is the one positivity rule; a boolean expression joining a _finite call
    # to "x > 0" (or its negation "x <= 0") anywhere else states it again. Nonnegativity,
    # "x >= 0", is another rule.
    def zero(node):
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) and not node.value

    def positivity(node):
        if not isinstance(node, ast.Compare):
            return False
        sides = [node.left, *node.comparators]
        return any(isinstance(op, (ast.Gt, ast.LtE)) and zero(right)
                   or isinstance(op, (ast.Lt, ast.GtE)) and zero(left)
                   for left, op, right in zip(sides, node.ops, sides[1:]))

    def finite(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_finite"

    pairs = [
        f"{name}:{node.lineno}" for name, node in _nodes_outside("_positive")
        if isinstance(node, ast.BoolOp)
        and any(map(finite, ast.walk(node))) and any(map(positivity, ast.walk(node)))
    ]
    assert not pairs


def test_only_game_check_positive_raises_on_a_value_that_is_not_positive():
    # game._check_positive is the one raise of the positivity rule; a "must be positive" in any
    # other string states it again. "at least one likelihood must be positive" is another rule,
    # on a vector: one entry of it must be positive
    texts = [f"{name}:{node.lineno}" for name, node in _nodes_outside("_check_positive")
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "must be positive" in node.value and not node.value.startswith("at least one")]
    assert not texts


def test_only_game_check_number_raises_on_a_number_of_another_type():
    # game._check_number is the one raise of the number-type rule; an "int, float or Fraction"
    # in any other string states it again
    texts = [f"{name}:{node.lineno}" for name, node in _nodes_outside("_check_number")
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "int, float or Fraction" in node.value]
    assert not texts


def test_only_game_whole_tells_an_integer():
    # game._whole is the one integer rule; a "type(x) is int", "type(x) is not int" or
    # "isinstance(x, int)" anywhere else states it again. isinstance(x, (int, Fraction)), the
    # test for an exact number, is another rule
    def is_int(node):
        return isinstance(node, ast.Name) and node.id == "int"

    def rule(node):
        if isinstance(node, ast.Compare):
            return any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) and any(
                map(is_int, [node.left, *node.comparators]))
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and is_int(node.args[-1]))

    sites = [f"{name}:{node.lineno}" for name, node in _nodes_outside("_whole") if rule(node)]
    assert not sites


def test_only_the_planner_reaches_into_the_dynamics_kernels():
    # the float kernels skip every check; the planner's rollouts call them on values it made, and
    # every other module goes through step and cost, the public calls a tracer of the package sees
    kernels = {"_advance", "_own_costs", "_pair_cost", "_frame"}
    reaches = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "altmerge").glob("*.py"))
        if path.name not in ("dynamics.py", "planner.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.alias) and node.name in kernels
        or isinstance(node, ast.Attribute) and node.attr in kernels
    ]
    assert not reaches


def test_only_game_made_builds_an_object_past_its_post_init():
    # game._made is the one constructor for values the package made; a __new__ anywhere else
    # builds an object that skips its checks some other way
    news = [f"{name}:{node.lineno}" for name, node in _nodes_outside("_made")
            if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert not news


def test_only_game_first_max_breaks_a_tie_to_the_lowest_index():
    # game._first_max is the one lowest-index tie-break; a max or min with a key, or an
    # .index(max(...)), anywhere else states it again
    def called(node):
        return getattr(node.func, "id", getattr(node.func, "attr", None))

    def tie_break(node):
        return isinstance(node, ast.Call) and (
            called(node) in ("max", "min") and any(k.arg == "key" for k in node.keywords)
            or isinstance(node.func, ast.Attribute) and called(node) == "index"
            and any(isinstance(arg, ast.Call) and called(arg) == "max" for arg in node.args))

    sites = [f"{name}:{node.lineno}" for name, node in _nodes_outside("_first_max")
             if tie_break(node)]
    assert not sites


def test_no_package_function_keeps_state_in_its_module():
    # the package keeps no state between calls outside objects its caller owns: no function
    # declares a global or stores into an item or attribute of a name its module binds
    def root(node):
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return getattr(node, "id", None)

    stores = []
    for path in sorted((ROOT / "src" / "altmerge").glob("*.py")):
        tree = ast.parse(path.read_text())
        module = {alias.asname or alias.name.split(".")[0] for node in tree.body
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        module |= {node.name for node in tree.body if isinstance(node, (ast.FunctionDef,
                                                                        ast.ClassDef))}
        module |= {name.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for name in ast.walk(node) if isinstance(name, ast.Name)
                   and isinstance(name.ctx, ast.Store)}
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            local = {arg.arg for arg in ast.walk(function.args) if isinstance(arg, ast.arg)}
            stores += [f"{path.name}:{node.lineno} {ast.unparse(node)}"
                       for node in ast.walk(function)
                       if isinstance(node, ast.Global)
                       or isinstance(node, (ast.Attribute, ast.Subscript))
                       and isinstance(node.ctx, ast.Store) and root(node) in module - local]
    assert not stores
