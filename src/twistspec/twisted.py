"""Twisted conjugacy classes and Reidemeister numbers.

For an endomorphism phi, elements g1 and g2 are twisted-conjugate when
g1 = h g2 phi(h)^-1 for some h.  The count of twisted classes can be obtained
two independent ways: by sweeping the orbits of the twisted action (the
definition) or by counting the fixed points of the map induced on ordinary
conjugacy classes.  The orbit method is the oracle; the fixed-class method is
the cheap default; ``checked`` runs both and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MethodDisagreement
from .group import ClassPartition, FiniteGroup, orbits
from .morphism import Morphism

METHODS = ("fixed-classes", "orbits", "checked")


@dataclass(frozen=True, eq=False)
class TwistedPartition:
    """Partition of a group into the twisted conjugacy classes of a morphism."""

    group: FiniteGroup
    morphism: Morphism
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)

    def identity_class_size(self) -> int:
        return self.sizes[self.class_of[0]]


@dataclass(frozen=True, eq=False)
class ClassMap:
    """The self-map induced on conjugacy classes: [g] -> [phi(g)]."""

    partition: ClassPartition
    mapping: tuple[int, ...]

    @property
    def fixed_count(self) -> int:
        return sum(1 for c, image in enumerate(self.mapping) if image == c)

    def fixed_classes(self) -> list[int]:
        return [c for c, image in enumerate(self.mapping) if image == c]


def twisted_classes(phi: Morphism) -> TwistedPartition:
    """Orbits of h . g = h g phi(h)^-1, numbered by smallest member index.

    They are the orbits of the generators' inverses, g -> s^-1 g phi(s): a
    row of s^-1 followed by the column of phi(s).
    """
    phi._require_endo()
    group = phi.source
    n = group.order
    inv = group.inverses()
    maps = []
    for s in group.generator_indices():
        column = group.column(phi.table[s])
        maps.append([column[x] for x in group.row(inv[s])])
    class_of, reps, sizes = orbits(n, maps)
    partition = TwistedPartition(group, phi, tuple(class_of), tuple(reps),
                                 tuple(sizes))
    if sum(sizes) != n:
        raise AssertionError("twisted class sizes do not sum to the order")
    if partition.identity_class_size() * phi.fixed_point_count() != n:
        raise AssertionError("orbit-stabiliser identity violated")
    return partition


def induced_class_map(phi: Morphism, classes: ClassPartition | None = None
                      ) -> ClassMap:
    """Map each class index to the class index of the image of its rep."""
    phi._require_endo()
    if classes is None:
        classes = phi.source.conjugacy_classes()
    mapping = tuple(classes.class_of[phi.table[r]]
                    for r in classes.representatives)
    if mapping[0] != 0:
        raise AssertionError("identity class must map to itself")
    if phi.is_automorphism() and len(set(mapping)) != classes.count:
        raise AssertionError("automorphism must permute the classes")
    return ClassMap(classes, mapping)


def reidemeister_number(phi: Morphism, method: str = "fixed-classes",
                        classes: ClassPartition | None = None) -> int:
    """Number of twisted conjugacy classes of an endomorphism.

    ``fixed-classes`` counts fixed points of the induced class map,
    ``orbits`` counts the twisted classes directly, and ``checked`` computes
    both and raises MethodDisagreement if they differ (never expected).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if method == "orbits":
        return twisted_classes(phi).count
    fixed = induced_class_map(phi, classes).fixed_count
    if method == "checked":
        orbit_count = twisted_classes(phi).count
        if orbit_count != fixed:
            raise MethodDisagreement(
                f"orbit sweep gave {orbit_count}, fixed classes gave {fixed} "
                f"for {phi!r}"
            )
    return fixed


def reduction_check(phi: Morphism, method: str = "fixed-classes") -> bool:
    """Verify that passing to the injective quotient preserves the count.

    Quotients by the stabilized kernel union, inducing an automorphism, and
    compares the two Reidemeister numbers.  Expected true for every
    endomorphism; exposed as a verification hook.
    """
    phi._require_endo()
    tower = phi.iterated_kernel()
    if tower.is_trivial():
        # phi is already injective: the induced map is phi itself.
        return True
    induced = phi.induced_on_quotient(tower)
    if not induced.is_automorphism():
        raise AssertionError("induced map on the quotient is not bijective")
    return (reidemeister_number(phi, method)
            == reidemeister_number(induced, method))
