"""Twisted conjugacy classes and Reidemeister numbers.

For an endomorphism phi, elements g1 and g2 are twisted-conjugate when
g1 = h g2 phi(h)^-1 for some h.  The count of twisted classes can be obtained
two independent ways: by sweeping the orbits of the twisted action (the
definition, ``twisted_classes(phi).count``) or by counting the conjugacy
classes that phi maps to themselves (``reidemeister_number``).  The orbit
count is the oracle; the fixed-class count is the cheap one, and the theorem
battery compares the two on every endomorphism it sweeps.

The public functions take a Morphism and wrap helpers that take the group,
phi's table, its generator images or its twisted classes, as the theorem
battery holds them when it reads the search's live tables.  The twisted
maps are cached by the group (``FiniteGroup._twisted_maps``), so every
caller shares them.  The reduction to the injective map on G/N is counted
on phi's twisted classes on G (``_coset_count``), with no second orbit pass.
"""

from __future__ import annotations

from operator import eq
from typing import Sequence

from .group import ClassPartition, FiniteGroup, orbits
from .morphism import Morphism, _kernel_tower


def _twisted_partition(group: FiniteGroup,
                       images: Sequence[int]) -> ClassPartition:
    """``twisted_classes`` of the endomorphism with these generator
    images."""
    partition = orbits(group.order, group._twisted_maps(images))
    if sum(partition.sizes) != group.order:
        raise AssertionError("twisted class sizes do not sum to the order")
    return partition


def twisted_classes(phi: Morphism) -> ClassPartition:
    """Orbits of h . g = h g phi(h)^-1, numbered by smallest member index.

    They are the orbits of the generators' inverses, g -> s^-1 g phi(s).
    The orbit-stabiliser identity |[1]| * |Fix phi| = |G| is not asserted
    here: ``theorem_battery`` checks it and reports a failure with a
    witness.
    """
    return _twisted_partition(phi.group, phi.generator_images)


def _class_images(table: Sequence[int], classes: ClassPartition,
                  bijective: bool) -> list[int]:
    """The class index of the image of each class representative under the
    endomorphism ``table``; asserts that the identity class is fixed and
    that an automorphism (``bijective``) permutes the classes."""
    class_of = classes.class_of
    mapping = [class_of[table[r]] for r in classes.representatives]
    if mapping[0] != 0:
        raise AssertionError("identity class must map to itself")
    if bijective and len(set(mapping)) != classes.count:
        raise AssertionError("automorphism must permute the classes")
    return mapping


def _fixed_count(table: Sequence[int], classes: ClassPartition,
                 bijective: bool) -> int:
    """The number of classes whose representative the endomorphism
    ``table`` maps back into its own class, with ``_class_images``'s
    assertions."""
    return sum(map(eq, _class_images(table, classes, bijective),
                   range(classes.count)))


def induced_class_map(phi: Morphism) -> tuple[int, ...]:
    """Map each class index to the class index of the image of its rep."""
    return tuple(_class_images(phi.table, phi.group.conjugacy_classes(),
                               phi.is_automorphism()))


def reidemeister_number(phi: Morphism) -> int:
    """Number of twisted conjugacy classes of an endomorphism, counted as
    the classes phi maps to themselves.  ``twisted_classes(phi).count``
    counts the same number by its definition."""
    return _fixed_count(phi.table, phi.group.conjugacy_classes(),
                        phi.is_automorphism())


def _coset_count(partition: ClassPartition, cosets: ClassPartition) -> int:
    """The Reidemeister number of the map that phi induces on G/N, read off
    ``partition``, phi's twisted classes on G, and ``cosets``, the cosets
    of N, for N normal with phi(N) in N.

    The projection G -> G/N carries h . g = h g phi(h)^-1 onto the twisted
    action of G/N and is onto, so each twisted class of G maps onto one
    whole twisted class of G/N, and two images are equal or disjoint.  One
    pass keeps the smallest coset each class meets, which tells the images
    apart; their number is the count.  No quotient group is built.
    """
    least = [cosets.count] * partition.count
    for c, coset in zip(partition.class_of, cosets.class_of):
        if coset < least[c]:
            least[c] = coset
    return len(set(least))


def _reduces(group: FiniteGroup, table: Sequence[int],
             partition: ClassPartition, count: int) -> bool:
    """``reduction_check`` of the endomorphism ``table`` with the twisted
    classes ``partition``."""
    tower, cosets = _kernel_tower(group, table)
    if tower.is_trivial():
        # phi is already injective: the induced map is phi itself.
        return True
    flags = tower.member_flags
    if any(flags[t] and not flags[x] for x, t in enumerate(table)):
        raise AssertionError("induced map on the quotient is not injective")
    return _coset_count(partition, cosets) == count


def reduction_check(phi: Morphism, count: int) -> bool:
    """True when ``count``, phi's Reidemeister number, is also that of the
    injective map phi induces on G/N, N the stabilized kernel union.

    Asserts first that phi(x) in N implies x in N, so the induced map is
    injective, hence bijective; this and the phi-invariance of N
    (``morphism._kernel_tower``) are checked for every phi, while N's
    closure, normality and cosets are verified once per distinct tower.
    The count is read off phi's twisted classes on G and N's cosets
    (``_coset_count``).  Expected true for every endomorphism; exposed as
    a verification hook.
    """
    return _reduces(phi.group, phi.table, twisted_classes(phi), count)
