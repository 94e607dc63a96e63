"""Every private module-level function or class in the package is used,
so deleting its last caller cannot leave it behind.

A private name (one starting with `_`) counts as used when some module
of the package reads it, as a bare name or as an attribute, outside its
own definition.  An import alone does not count: a name imported but
never read is as dead as its definition.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kernelkit"


def _orphans(trees):
    """(module, name) of every private top-level def or class that no
    module of `trees`, a dict of module name to syntax tree, reads
    outside the definition itself."""
    defined = []
    reads = {}
    for module, tree in trees.items():
        own = {}
        for node in tree.body:
            definition = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if definition and node.name.startswith("_"):
                defined.append((module, node.name))
                own.update({id(inner): node.name for inner in ast.walk(node)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if own.get(id(node)) != name:
                reads[name] = reads.get(name, 0) + 1
    return sorted((module, name) for module, name in defined if not reads.get(name))


def test_no_private_name_is_orphaned():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert _orphans(trees) == []


def test_the_scan_sees_orphans():
    trees = {
        "a": ast.parse(
            "from .b import _imported_only\n"
            "def _used(): pass\n"
            "def _self_only():\n"
            "    return _self_only()\n"
            "class _Orphan:\n"
            "    pass\n"
            "def public():\n"
            "    return _used()\n"
        ),
        "b": ast.parse(
            "import a\n"
            "def _imported_only(): pass\n"
            "def _read_as_attribute(): pass\n"
            "x = a._read_as_attribute\n"
        ),
    }
    assert _orphans(trees) == [("a", "_Orphan"), ("a", "_self_only"), ("b", "_imported_only")]
