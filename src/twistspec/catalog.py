"""Named-group constructors and the JSON group-definition file format.

A definition file is one JSON document per group::

    {
      "name": "S4",
      "degree": 4,
      "generators": [[2, 1, 3, 4], [2, 3, 4, 1]],
      "expected": {"order": 24, "class_number": 5}
    }

Generator rows are 1-based image sequences.  The optional ``expected`` block
is asserted at build time: a mismatch fails loudly instead of propagating a
wrong group through a survey.  Any other key is rejected, so a misspelled
block cannot load unasserted.

Builders that act on a list of points (a group's own elements, the affine
plane of M9, the nonzero vectors of SL(2,p)) write rows through ``_action``.
"""

from __future__ import annotations

import itertools
import json
import re
from functools import partial, reduce
from math import factorial, gcd, isqrt
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .errors import DefinitionError
from .group import DEFAULT_ORDER_CAP, FiniteGroup, closure, orbits
from .perm import Permutation

_KEYS = ("name", "degree", "generators", "expected")
_EXPECTED_KEYS = ("order", "class_number")


class GroupDefinition(NamedTuple):
    """A named permutation group given by 1-based generator image rows."""

    name: str
    degree: int
    generators: list[list[int]]
    expected: dict | None = None

    def permutations(self) -> list[Permutation]:
        perms = []
        for position, row in enumerate(self.generators):
            if not all(map(_is_int, row)):
                raise DefinitionError(
                    f"{self.name}: generator {position + 1}: images must be "
                    "integers"
                )
            if len(row) != self.degree:
                raise DefinitionError(
                    f"{self.name}: generator {position + 1} has degree "
                    f"{len(row)}, expected {self.degree}"
                )
            try:
                perms.append(Permutation.one_based(row))
            except (ValueError, TypeError) as exc:
                raise DefinitionError(
                    f"{self.name}: generator {position + 1}: {exc}"
                ) from exc
        return perms

    def to_json_dict(self) -> dict:
        doc = {
            "name": self.name,
            "degree": self.degree,
            "generators": [list(row) for row in self.generators],
        }
        if self.expected is not None:
            doc["expected"] = dict(self.expected)
        return doc


def build(defn: GroupDefinition, *,
          order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Materialize a definition and assert its ``expected`` block."""
    group = closure(defn.degree, defn.permutations(), name=defn.name,
                    order_cap=order_cap)
    expected = defn.expected or {}
    want_order = expected.get("order")
    if want_order is not None and group.order != want_order:
        raise DefinitionError(
            f"{defn.name}: materialized order {group.order}, "
            f"expected {want_order}"
        )
    want_k = expected.get("class_number")
    if want_k is not None and group.class_number() != want_k:
        raise DefinitionError(
            f"{defn.name}: class number {group.class_number()}, "
            f"expected {want_k}"
        )
    return group


# -- file I/O ----------------------------------------------------------------

def save(defn: GroupDefinition, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(defn.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )


def load(path: str | Path) -> GroupDefinition:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DefinitionError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DefinitionError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DefinitionError(f"{path}: JSON nested too deeply") from exc
    return from_json_dict(doc, source=str(path))


def _is_int(value: object) -> bool:
    """An integer and not a boolean (JSON ``true`` loads as a ``bool``,
    which Python counts as an ``int``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def from_json_dict(doc: object, *, source: str = "<memory>") -> GroupDefinition:
    if not isinstance(doc, dict):
        raise DefinitionError(f"{source}: top level must be an object")
    for key in ("name", "degree", "generators"):
        if key not in doc:
            raise DefinitionError(f"{source}: missing field {key!r}")
    unknown = set(doc).difference(_KEYS)
    if unknown:
        raise DefinitionError(f"{source}: unknown keys {sorted(unknown)}")
    name = doc["name"]
    degree = doc["degree"]
    generators = doc["generators"]
    if not isinstance(name, str) or not name:
        raise DefinitionError(f"{source}: 'name' must be a non-empty string")
    if not _is_int(degree) or degree < 1:
        raise DefinitionError(f"{source}: 'degree' must be a positive integer")
    if not isinstance(generators, list) or any(
            not isinstance(row, list) for row in generators):
        raise DefinitionError(f"{source}: 'generators' must be a list of "
                              "image rows")
    expected = doc.get("expected")
    if expected is not None:
        if not isinstance(expected, dict):
            raise DefinitionError(f"{source}: 'expected' must be an object")
        unknown = set(expected).difference(_EXPECTED_KEYS)
        if unknown:
            raise DefinitionError(
                f"{source}: unknown expected keys {sorted(unknown)}"
            )
        for key, value in expected.items():
            if not _is_int(value) or value < 1:
                raise DefinitionError(
                    f"{source}: expected.{key} must be a positive integer"
                )
    defn = GroupDefinition(name, degree,
                           [list(row) for row in generators], expected)
    defn.permutations()  # validate rows now, with positions in the message
    return defn


def slug(name: str) -> str:
    """A filesystem-friendly file stem for a group name."""
    stem = re.sub(r"[^0-9a-zA-Z]+", "_", name).strip("_").lower()
    return stem or "group"


# -- builders ------------------------------------------------------------------

def _rotation_row(n: int) -> list[int]:
    return [(i + 1) % n + 1 for i in range(n)]


def cyclic(n: int) -> GroupDefinition:
    if n < 1:
        raise DefinitionError("cyclic order must be positive")
    if n == 1:
        return GroupDefinition("Z1", 1, [],
                               {"order": 1, "class_number": 1})
    return GroupDefinition(f"Z{n}", n, [_rotation_row(n)],
                           {"order": n, "class_number": n})


def abelian(*orders: int) -> GroupDefinition:
    """The direct product of the cyclic groups of the given orders."""
    if not orders or any(k < 2 for k in orders):
        raise DefinitionError("abelian factors must all be at least 2")
    return reduce(direct_product, map(cyclic, orders))


def dihedral(n: int) -> GroupDefinition:
    """Symmetries of the regular n-gon on its n vertices, order 2n (n >= 3)."""
    if n < 3:
        raise DefinitionError("dihedral needs n >= 3; use cyclic/abelian below")
    reflection = [(n - i) % n + 1 for i in range(n)]
    k = n // 2 + 3 if n % 2 == 0 else (n + 3) // 2
    return GroupDefinition(f"D{n}", n, [_rotation_row(n), reflection],
                           {"order": 2 * n, "class_number": k})


_PARTITIONS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15}


def symmetric(n: int) -> GroupDefinition:
    if n < 1:
        raise DefinitionError("symmetric needs n >= 1")
    if n == 1:
        return GroupDefinition("S1", 1, [], {"order": 1, "class_number": 1})
    transposition = [2, 1] + list(range(3, n + 1))
    rows = [transposition] if n == 2 else [transposition, _rotation_row(n)]
    expected = {"order": factorial(n)}
    if n in _PARTITIONS:
        expected["class_number"] = _PARTITIONS[n]
    return GroupDefinition(f"S{n}", n, rows, expected)


_ALTERNATING_K = {3: 3, 4: 4, 5: 5, 6: 7, 7: 9}


def alternating(n: int) -> GroupDefinition:
    if n < 1:
        raise DefinitionError("alternating needs n >= 1")
    if n <= 2:
        return GroupDefinition(f"A{n}", max(n, 1), [],
                               {"order": 1, "class_number": 1})
    three_cycle = [2, 3, 1] + list(range(4, n + 1))
    if n == 3:
        rows = [three_cycle]
    elif n % 2 == 1:
        rows = [three_cycle, _rotation_row(n)]
    else:
        long_even = [1] + list(range(3, n + 1)) + [2]  # (2 3 ... n)
        rows = [three_cycle, long_even]
    expected = {"order": factorial(n) // 2}
    if n in _ALTERNATING_K:
        expected["class_number"] = _ALTERNATING_K[n]
    return GroupDefinition(f"A{n}", n, rows, expected)


def _action(points: list, *maps: Callable) -> list[list[int]]:
    """The 1-based image row of each map on ``points``: entry i of a map's
    row is one more than the position of the map's image of ``points[i]``."""
    index = {p: i for i, p in enumerate(points)}
    return [[index[fn(p)] + 1 for p in points] for fn in maps]


def quaternion_dicyclic(n: int) -> GroupDefinition:
    """Dicyclic group of order 4n in its regular action; n = 2 gives Q8."""
    if n < 2:
        raise DefinitionError("dicyclic needs n >= 2")
    m = 2 * n
    elements = [(i, j) for j in (0, 1) for i in range(m)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        if j1 == 0:
            return ((i1 + i2) % m, j2)
        if j2 == 0:
            return ((i1 - i2) % m, 1)
        return ((i1 - i2 + n) % m, 0)

    # left regular action keeps products aligned with composition
    rows = _action(elements, partial(mul, (1, 0)), partial(mul, (0, 1)))
    return GroupDefinition(f"Dic{n}", len(elements), rows,
                           {"order": 4 * n, "class_number": n + 3})


def metacyclic(m: int, n: int, r: int) -> GroupDefinition:
    """The split extension of Z_m by Z_n acting as multiplication by r.

    Acts on m points (translation plus x -> r x) when r has multiplicative
    order exactly n mod m, which makes that action faithful; otherwise falls
    back to the regular action on m*n points.
    """
    if m < 2 or n < 1:
        raise DefinitionError("metacyclic needs m >= 2 and n >= 1")
    if not 1 <= r < m or gcd(r, m) != 1:
        raise DefinitionError(f"r={r} must be a unit modulo {m}")
    if pow(r, n, m) != 1:
        raise DefinitionError(f"r^n = {pow(r, n, m)} != 1 mod {m}")
    name = f"Meta({m},{n},{r})"
    expected = {"order": m * n}
    if all(pow(r, d, m) != 1 for d in range(1, n)):
        translation = _rotation_row(m)
        scaling = [(r * i) % m + 1 for i in range(m)]
        return GroupDefinition(name, m, [translation, scaling], expected)
    elements = [(i, j) for j in range(n) for i in range(m)]

    def mul(x, y):
        i1, j1 = x
        i2, j2 = y
        return ((i1 + i2 * pow(r, j1, m)) % m, (j1 + j2) % n)

    # left regular action keeps products aligned with composition
    rows = _action(elements, partial(mul, (1, 0)), partial(mul, (0, 1)))
    return GroupDefinition(name, len(elements), rows, expected)


def direct_product(a: GroupDefinition, b: GroupDefinition) -> GroupDefinition:
    rows = []
    tail = list(range(a.degree + 1, a.degree + b.degree + 1))
    for row in a.generators:
        rows.append(list(row) + tail)
    head = list(range(1, a.degree + 1))
    for row in b.generators:
        rows.append(head + [x + a.degree for x in row])
    # Order and class number both multiply over direct products.
    expected = {key: a.expected[key] * b.expected[key]
                for key in _EXPECTED_KEYS
                if key in (a.expected or ()) and key in (b.expected or ())}
    return GroupDefinition(f"{a.name}x{b.name}", a.degree + b.degree,
                           rows, expected or None)


def _unit_generators(n: int) -> list[int]:
    """Lexicographically first smallest generating set of the units mod n:
    the first combo under whose maps x -> x u mod n the orbit of 1, which
    is <combo>, holds every unit."""
    units = [a for a in range(1, n) if gcd(a, n) == 1]
    if len(units) == 1:
        return []
    for size in range(1, len(units)):
        for combo in itertools.combinations(units[1:], size):
            generated = orbits(n, [[x * u % n for x in range(n)]
                                   for u in combo])
            if generated.sizes[generated.class_of[1]] == len(units):
                return list(combo)
    raise AssertionError("unit group failed to generate itself")


def holomorph_cyclic(n: int) -> GroupDefinition:
    """All affine maps x -> a x + b on Z_n with a a unit, on n points."""
    if n < 2:
        raise DefinitionError("holomorph needs n >= 2")
    rows = [_rotation_row(n)]
    for u in _unit_generators(n):
        rows.append([(u * i) % n + 1 for i in range(n)])
    totient = sum(1 for a in range(1, n) if gcd(a, n) == 1)
    return GroupDefinition(f"Hol(Z{n})", n, rows, {"order": n * totient})


def m9() -> GroupDefinition:
    """The sharply 2-transitive group of order 72 on the 9 points of the
    affine plane over the 3-element field: translations extended by the
    quaternion subgroup of unimodular 2x2 matrices."""
    points = [(x, y) for x in range(3) for y in range(3)]
    rows = _action(
        points,
        lambda p: ((p[0] + 1) % 3, p[1]),
        lambda p: (p[0], (p[1] + 1) % 3),
        lambda p: ((-p[1]) % 3, p[0]),                      # [[0,-1],[1,0]]
        lambda p: ((p[0] + p[1]) % 3, (p[0] - p[1]) % 3))   # [[1,1],[1,-1]]
    return GroupDefinition("M9", 9, rows, {"order": 72, "class_number": 6})


def sl2(p: int) -> GroupDefinition:
    """2x2 determinant-one matrices over the p-element field acting on the
    p^2 - 1 nonzero vectors, for an odd prime p; SL(2,p) then has p + 4
    conjugacy classes."""
    if p < 3 or p % 2 == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1)):
        raise DefinitionError(f"sl2 needs an odd prime, got {p}")
    points = [(x, y) for x in range(p) for y in range(p) if (x, y) != (0, 0)]
    rows = _action(
        points,
        lambda v: ((-v[1]) % p, v[0]),          # [[0,-1],[1,0]]
        lambda v: ((v[0] + v[1]) % p, v[1]))    # [[1,1],[0,1]]
    return GroupDefinition(f"SL(2,{p})", p * p - 1, rows,
                           {"order": p * (p * p - 1),
                            "class_number": p + 4})


# -- the shipped catalog ---------------------------------------------------------

def _named(defn: GroupDefinition, name: str | None = None,
           class_number: int | None = None) -> GroupDefinition:
    if name is not None:
        defn = defn._replace(name=name)
    if class_number is not None:
        defn = defn._replace(
            expected={**(defn.expected or {}), "class_number": class_number})
    return defn


def shipped_catalog() -> list[GroupDefinition]:
    """The groups distributed with the tool: every builder at small
    parameters, all of order <= 120."""
    defs = [
        cyclic(1), cyclic(2), cyclic(3), cyclic(4), cyclic(5), cyclic(6),
        cyclic(7), cyclic(8), cyclic(9), cyclic(11), cyclic(12), cyclic(13),
        cyclic(27),
        abelian(2, 2), abelian(2, 4), abelian(2, 2, 2), abelian(3, 3),
        abelian(4, 4), abelian(5, 5), abelian(2, 6), abelian(2, 2, 4),
        abelian(2, 12),
        dihedral(4), dihedral(5), dihedral(6), dihedral(7), dihedral(8),
        _named(quaternion_dicyclic(2), "Q8"),
        quaternion_dicyclic(3),
        _named(quaternion_dicyclic(4), "Q16"),
        quaternion_dicyclic(6),
        symmetric(3), symmetric(4), symmetric(5),
        alternating(4), alternating(5),
        _named(metacyclic(7, 3, 2), "F21", class_number=5),
        _named(metacyclic(11, 5, 3), "F55", class_number=7),
        _named(metacyclic(9, 3, 4), class_number=11),
        metacyclic(8, 2, 3),
        metacyclic(3, 6, 2),
        _named(holomorph_cyclic(5), class_number=5),
        _named(holomorph_cyclic(7), class_number=7),
        _named(holomorph_cyclic(9), class_number=10),
        _named(holomorph_cyclic(11), class_number=11),
        _named(holomorph_cyclic(15), class_number=15),
        m9(),
        sl2(3), sl2(5),
        _named(direct_product(symmetric(3), symmetric(3)), "S3xS3"),
        _named(direct_product(alternating(4), cyclic(2)), "A4xZ2"),
    ]
    names = [d.name for d in defs]
    if len(set(names)) != len(names):
        raise AssertionError("catalog names must be unique")
    return defs


def write_catalog(directory: str | Path,
                  definitions: Sequence[GroupDefinition] | None = None
                  ) -> list[Path]:
    """Write one JSON file per definition; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for defn in definitions if definitions is not None else shipped_catalog():
        path = directory / f"{slug(defn.name)}.json"
        save(defn, path)
        paths.append(path)
    return paths
