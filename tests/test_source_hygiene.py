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
``_Budget``, and no private function takes an int as ``budget``.  Only the
engines that do the work open a budget phase: the generating-set scan, the
morphism search and the abelian count.  ``orbits`` is the one orbit loop:
the only other loops that grow the list they walk are four named
breadth-first searches that build more than a partition.
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


def _owners(node, match, owner="<module>"):
    """The name of the innermost function around each node under ``node``
    that ``match`` accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _owners(child, match, child.name)
            continue
        if match(child):
            yield owner
        yield from _owners(child, match, owner)


def _calls(name):
    """A matcher of the calls of ``name``, as a name or an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def _sets_phase(node):
    """Whether ``node`` assigns to an attribute named ``phase``."""
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Attribute) and target.attr == "phase"
        for target in node.targets)


def test_one_budget_per_command():
    """Each public entry point makes the one ``_Budget`` of its command and
    hands it down; ``classify`` makes one more, the fresh allowance of the
    Aut fold after a skipped End fold.  Private functions take the object,
    never an int named ``budget``."""
    makers = sorted(owner for tree in TREES.values()
                    for owner in _owners(tree, _calls("_Budget")))
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


def test_each_engine_opens_its_own_phase():
    """``_Budget.__init__`` starts with no phase; after it only the scan,
    the search and the abelian count set one, and only the search and the
    count run the scan, so no caller pre-scans or names a phase."""
    phase_setters = sorted(owner for tree in TREES.values()
                           for owner in _owners(tree, _sets_phase))
    assert phase_setters == ["__init__", "_count_abelian",
                             "_derive_small_gens", "_search"]
    scanners = sorted(owner for tree in TREES.values() for owner in
                      _owners(tree, _calls("small_generating_set")))
    assert scanners == ["_count_abelian", "_search"]


def _walked_names(node):
    """The names a loop walks: a ``for`` loop's iterable, bare or under
    ``enumerate``, or every name a ``while`` loop's test reads."""
    if isinstance(node, ast.While):
        return {name.id for name in ast.walk(node.test)
                if isinstance(name, ast.Name)}
    if not isinstance(node, ast.For):
        return set()
    walked = node.iter
    if (isinstance(walked, ast.Call) and walked.args
            and getattr(walked.func, "id", None) == "enumerate"):
        walked = walked.args[0]
    return {walked.id} if isinstance(walked, ast.Name) else set()


def _grows_its_iterable(node):
    """Whether ``node`` is a loop whose body appends to or extends a name
    that the loop walks: a breadth-first search."""
    walked = _walked_names(node)  # empty unless node is a loop
    return bool(walked) and any(
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in ("append", "extend")
        and getattr(call.func.value, "id", None) in walked
        for statement in node.body for call in ast.walk(statement))


def test_orbits_is_the_one_orbit_loop():
    """Every orbit count in the package, conjugacy classes, twisted
    classes, the classes of G/N, normal closures, the search's stabiliser
    orbits and the catalog's unit groups, calls ``orbits``.  The other breadth-first
    searches each build something an orbit partition does not give:

    - ``_adjoin`` grows one subgroup by a generator, visiting only new
      members with every column, and can check that it stays in a mask;
    - ``_levels`` records the search's extension steps in BFS order;
    - ``closure`` materialises G, making the elements it walks;
    - ``orbits`` is the orbit loop itself.
    """
    loops = sorted(owner for tree in TREES.values()
                   for owner in _owners(tree, _grows_its_iterable))
    assert loops == ["_adjoin", "_levels", "closure", "orbits"]
