"""Dead code in the package, found by reading its source with ``ast``.

Every module-level import of a module under ``src/twistspec`` must be used
in that module (``__future__`` imports and the re-exporting ``__init__``
aside), and every private function, method or class (one leading
underscore) must be referenced, as a name or an attribute, somewhere in the
package.  A helper or import left behind by a refactor fails here.  And no
zero-argument ``FiniteGroup`` method writes to ``self``: such an accessor
keeps its value through ``_once`` in ``group.py``, so a hand-rolled cache
(a memo field and its ``if ... is None`` block) fails here.  One product
budget serves each command: only the public entry points make a
``_Budget``, and no private function takes an int as ``budget``.
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


def _self_targets(method):
    """The assignment targets in ``method`` that write to ``self``: an
    attribute, or an item of one, whose chain starts at ``self``."""
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                root = part
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if (root is not part and isinstance(root, ast.Name)
                        and root.id == "self"):
                    yield ast.unparse(part)
                    break


def test_zero_argument_group_methods_write_nothing_to_self():
    group_class = next(node for node in ast.walk(TREES["group.py"])
                       if isinstance(node, ast.ClassDef)
                       and node.name == "FiniteGroup")
    zero_argument = [node for node in group_class.body
                     if isinstance(node, ast.FunctionDef)
                     and [arg.arg for arg in node.args.args] == ["self"]
                     and not (node.args.vararg or node.args.kwonlyargs
                              or node.args.kwarg)]
    assert {"inverses", "conjugacy_classes", "is_nilpotent"} <= {
        method.name for method in zero_argument}
    assert sorted((method.name, target) for method in zero_argument
                  for target in _self_targets(method)) == []


def _budget_makers(node, owner="<module>"):
    """The name of the innermost function around each ``_Budget(...)``
    call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _budget_makers(child, child.name)
            continue
        if isinstance(child, ast.Call) and "_Budget" in (
                getattr(child.func, "id", None),
                getattr(child.func, "attr", None)):
            yield owner
        yield from _budget_makers(child, owner)


def test_one_budget_per_command():
    """Each public entry point makes the one ``_Budget`` of its command and
    hands it down; ``classify`` makes one more, the fresh allowance of the
    Aut fold after a skipped End fold.  Private functions take the object,
    never an int named ``budget``."""
    makers = sorted(owner for tree in TREES.values()
                    for owner in _budget_makers(tree))
    assert makers == ["classify", "classify", "extended_spectrum",
                      "spectrum", "theorem_battery", "weighted_sweep"]
    takes_budget = sorted(
        node.name for tree in TREES.values() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and "budget" in {arg.arg for arg in (*node.args.posonlyargs,
                                             *node.args.args,
                                             *node.args.kwonlyargs)})
    assert takes_budget == []
