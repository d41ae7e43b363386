"""Permutations of a finite point set, the element type for every group here.

Points are 0-based internally; serialization and cycle notation are 1-based.
Composition is fixed once and for all as ``(p * q)(x) == p(q(x))`` (apply
``q`` first, then ``p``); every algorithm in the package relies on that
single convention.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence


class Permutation(tuple):
    """A bijection on ``{0, ..., degree - 1}`` stored as its image tuple."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Permutation":
        self = tuple.__new__(cls, images)
        n = len(self)
        seen = [False] * n
        for x in self:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"not a bijection on 0..{n - 1}: {tuple(self)!r}")
            seen[x] = True
        return self

    @classmethod
    def _unchecked(cls, images: tuple) -> "Permutation":
        # Internal fast path for images already known to be a bijection.
        return tuple.__new__(cls, images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be positive")
        return cls._unchecked(tuple(range(degree)))

    @classmethod
    def one_based(cls, images: Sequence[int]) -> "Permutation":
        """Build from a 1-based image list, the external file convention."""
        return cls(x - 1 for x in images)

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> "Permutation":
        """Build from disjoint cycles of 1-based points."""
        images = list(range(degree))
        touched = set()
        for cyc in cycles:
            for point in cyc:
                if not 1 <= point <= degree:
                    raise ValueError(f"point {point} outside 1..{degree}")
                if point in touched:
                    raise ValueError(f"cycles are not disjoint at point {point}")
                touched.add(point)
            for k, point in enumerate(cyc):
                images[point - 1] = cyc[(k + 1) % len(cyc)] - 1
        return cls._unchecked(tuple(images))

    @property
    def degree(self) -> int:
        return len(self)

    def to_one_based(self) -> list[int]:
        return [x + 1 for x in self]

    def __call__(self, point: int) -> int:
        return self[point]

    def __mul__(self, other):  # type: ignore[override]
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError(f"degree mismatch: {len(self)} vs {len(other)}")
        if len(other) == 1:  # one point's itemgetter gives an int
            return self
        return Permutation._unchecked(itemgetter(*other)(self))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self)
        for i, x in enumerate(self):
            inv[x] = i
        return Permutation._unchecked(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles as 1-based point tuples, each led by its minimum."""
        out = []
        seen = [False] * len(self)
        for start in range(len(self)):
            if seen[start] or self[start] == start:
                seen[start] = True
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x + 1)
                x = self[x]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    def order(self) -> int:
        return lcm(1, *map(len, self.cycles()))

    def __repr__(self) -> str:
        return f"Perm({self.cycle_string()})"
