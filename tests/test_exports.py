"""Every name a module lists in `__all__` is an attribute of it, so
`from kernelkit.X import *` cannot break on a stale entry."""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "kernelkit").glob("*.py"))


def declared_all(path):
    """The literal `__all__` list of a source file, or None."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


DECLARED = {path.stem: declared_all(path) for path in SOURCES}


@pytest.mark.parametrize("name", sorted(m for m, names in DECLARED.items() if names is not None))
def test_all_names_resolve(name):
    module = importlib.import_module(f"kernelkit.{name}")
    assert [entry for entry in DECLARED[name] if not hasattr(module, entry)] == []
