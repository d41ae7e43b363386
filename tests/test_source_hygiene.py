"""Dead code in the package, found by reading its source with ``ast``.

Every module-level import of a module under ``src/twistspec`` must be used
in that module (``__future__`` imports and the re-exporting ``__init__``
aside), and every private function, method or class (one leading
underscore) must be referenced, as a name or an attribute, somewhere in the
package.  A helper or import left behind by a refactor fails here.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "twistspec")
                 .glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in SOURCES}


def _referenced(tree):
    """The names and attribute names that ``tree`` reads or writes."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def _imported(tree):
    """The names that the module-level imports of ``tree`` bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("name", [name for name in TREES
                                  if name != "__init__.py"])
def test_every_import_is_used(name):
    tree = TREES[name]
    assert sorted(set(_imported(tree)) - _referenced(tree)) == []


def test_every_private_definition_is_referenced():
    referenced = set().union(*map(_referenced, TREES.values()))
    private = {
        (name, node.name) for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")}
    assert sorted(definition for definition in private
                  if definition[1] not in referenced) == []
