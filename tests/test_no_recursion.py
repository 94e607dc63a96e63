"""No function in the package calls itself, so no input depth can meet
Python's recursion limit.

A bare-name call inside a module-level or nested function is a call to
that function when the names match.  Inside a method a bare name refers
to a module-level function (`SolvabilityVerdict.to_json_obj` calls the
module's `to_json_obj`), so there only `self.<name>` and `cls.<name>`
count.

No check in the package is an `assert` statement either, so that
`python -O`, which strips them, leaves every check in place.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kernelkit"


def _self_calls(tree):
    """(function name, line) of every call a function makes to itself."""
    found = []
    pending = [(tree, False)]
    while pending:
        node, in_class = pending.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if in_class:
                        hit = (
                            isinstance(f, ast.Attribute)
                            and f.attr == child.name
                            and isinstance(f.value, ast.Name)
                            and f.value.id in ("self", "cls")
                        )
                    else:
                        hit = isinstance(f, ast.Name) and f.id == child.name
                    if hit:
                        found.append((child.name, call.lineno))
                pending.append((child, False))
            else:
                pending.append((child, isinstance(child, ast.ClassDef) or in_class))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    assert _self_calls(ast.parse(path.read_text())) == []


def test_the_scan_sees_recursion():
    source = (
        "def walk(n):\n"
        "    return walk(n - 1)\n"
        "def outer():\n"
        "    def rec(v):\n"
        "        yield from rec(v + 1)\n"
        "class Report:\n"
        "    def to_json_obj(self):\n"
        "        return to_json_obj(self)\n"
        "    def again(self):\n"
        "        return self.again()\n"
    )
    assert sorted(_self_calls(ast.parse(source))) == [("again", 10), ("rec", 5), ("walk", 2)]


def _asserts(tree):
    """The line of every `assert` statement, which `python -O` strips."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_check_is_an_assert(path):
    # a check the package relies on must hold under `python -O` too
    assert _asserts(ast.parse(path.read_text())) == []


def test_the_scan_sees_asserts():
    source = "def f(x):\n    assert x\n    if x:\n        assert not x, 'no'\n"
    assert _asserts(ast.parse(source)) == [2, 4]
