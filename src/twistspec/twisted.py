"""Twisted conjugacy classes and Reidemeister numbers.

For an endomorphism phi, elements g1 and g2 are twisted-conjugate when
g1 = h g2 phi(h)^-1 for some h.  The count of twisted classes can be obtained
two independent ways: by sweeping the orbits of the twisted action (the
definition, ``twisted_classes(phi).count``) or by counting the conjugacy
classes that phi maps to themselves (``reidemeister_number``).  The orbit
count is the oracle; the fixed-class count is the cheap one, and the theorem
battery compares the two on every endomorphism it sweeps.

The public functions take a Morphism and wrap helpers that take the group
and phi's table, as the theorem battery holds them when it reads the
search's live tables: R on G/N counted by ``_fixed_count`` on the classes
of G/N, a partition of G that the kernel tower's entry holds
(``_quotient_count``).  The battery counts the twisted classes itself, as
``twisted_classes`` does: ``group.orbits`` over the group's cached twisted
maps, the one orbit loop in the package.
"""

from __future__ import annotations

from operator import eq
from typing import Sequence

from .group import ClassPartition, FiniteGroup, orbits
from .morphism import Morphism, _kernel_tower


def twisted_classes(phi: Morphism) -> ClassPartition:
    """Orbits of h . g = h g phi(h)^-1, numbered by smallest member index.

    They are the orbits of the generators' inverses, g -> s^-1 g phi(s).
    The orbit-stabiliser identity |[1]| * |Fix phi| = |G| is not asserted
    here: ``theorem_battery`` checks it and reports a failure with a
    witness.
    """
    group = phi.group
    return orbits(group.order, group._twisted_maps(phi.generator_images))


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


def _quotient_count(group: FiniteGroup, table: Sequence[int]) -> int:
    """R of the injective map phi induces on G/N, N the kernel tower of
    ``table``: the classes of G/N, as a partition of G, that phi maps to
    themselves."""
    return _fixed_count(table, _kernel_tower(group, table)[1], False)


def reduction_check(phi: Morphism, count: int) -> bool:
    """True when ``count``, phi's Reidemeister number, is also that of the
    injective map phi induces on G/N (``_quotient_count``); an injective
    phi is its own reduction.  Expected true for every endomorphism."""
    return phi.is_automorphism() or (
        _quotient_count(phi.group, phi.table) == count)
