import pytest

import oracles

from twistspec.errors import MethodDisagreement
from twistspec.morphism import (Morphism, enumerate_endomorphisms,
                                identity_morphism, inner_automorphism,
                                morphism_from_images)
from twistspec.perm import Permutation
from twistspec.twisted import (induced_class_map, reduction_check,
                               reidemeister_number, twisted_classes)
from twistspec.catalog import alternating, build, cyclic, symmetric


@pytest.fixture(scope="module")
def s3():
    return build(symmetric(3))


def brute_twisted_partition(phi):
    """Oracle straight from the definition: g1 ~ g2 iff g1 = h g2 phi(h)^-1."""
    table = oracles.product_table(phi.source)
    inv = oracles.inverses(table)
    n = len(table)
    related = {
        g: {table[table[h][g]][inv[phi.table[h]]] for h in range(n)}
        for g in range(n)
    }
    classes = []
    seen = set()
    for g in range(n):
        if g in seen:
            continue
        orbit = related[g]
        seen |= orbit
        classes.append(frozenset(orbit))
    return set(classes)


def test_identity_twist_is_ordinary_conjugation(s3):
    partition = twisted_classes(identity_morphism(s3))
    ordinary = s3.conjugacy_classes()
    assert partition.class_of == ordinary.class_of
    assert partition.sizes == ordinary.sizes


def test_trivial_morphism_has_one_class(s3):
    trivial = morphism_from_images(s3, s3, [Permutation.identity(3)] * 2)
    partition = twisted_classes(trivial)
    assert partition.count == 1
    assert partition.sizes == (6,)


def test_inversion_on_z4_gives_even_cosets():
    z4 = build(cyclic(4))
    inversion = Morphism(z4, z4, [z4.inverse(i) for i in range(4)])
    partition = twisted_classes(inversion)
    assert partition.count == 2
    two = z4.power(1, 2)
    first = {i for i in range(4) if partition.class_of[i] == 0}
    assert first == {0, two}
    assert reidemeister_number(inversion, "orbits") == 2
    assert reidemeister_number(inversion, "checked") == 2


def test_twisted_partition_matches_definition_oracle(s3):
    for phi in enumerate_endomorphisms(s3):
        partition = twisted_classes(phi)
        mine = {
            frozenset(i for i in range(s3.order)
                      if partition.class_of[i] == c)
            for c in range(partition.count)
        }
        assert mine == brute_twisted_partition(phi)


# -- induced class map ---------------------------------------------------------

def test_induced_map_of_identity_is_identity(s3):
    mapping = induced_class_map(identity_morphism(s3)).mapping
    assert mapping == tuple(range(s3.conjugacy_classes().count))


def test_induced_map_of_trivial_is_constant(s3):
    trivial = morphism_from_images(s3, s3, [Permutation.identity(3)] * 2)
    assert set(induced_class_map(trivial).mapping) == {0}


def test_induced_map_swaps_a4_cycle_classes():
    a4 = build(alternating(4))
    swap = Permutation.from_cycles(4, (1, 2))
    phi = morphism_from_images(
        a4, a4, [swap * g * swap.inverse() for g in a4.generators])
    mapping = induced_class_map(phi).mapping
    classes = a4.conjugacy_classes()
    three_cycle_classes = [c for c in range(classes.count)
                           if classes.sizes[c] == 4]
    a, b = three_cycle_classes
    assert mapping[a] == b and mapping[b] == a
    fixed = [c for c in range(classes.count) if mapping[c] == c]
    assert len(fixed) == 2


def test_map_independent_of_representative(s3):
    classes = s3.conjugacy_classes()
    for phi in enumerate_endomorphisms(s3):
        mapping = induced_class_map(phi, classes).mapping
        for g in range(s3.order):
            assert (classes.class_of[phi.table[g]]
                    == mapping[classes.class_of[g]])


# -- counting -------------------------------------------------------------------

def test_identity_count_is_class_number(s3):
    assert reidemeister_number(identity_morphism(s3)) == 3


def test_trivial_morphism_count_is_one(s3):
    trivial = morphism_from_images(s3, s3, [Permutation.identity(3)] * 2)
    assert reidemeister_number(trivial) == 1


def test_unknown_method_rejected(s3):
    with pytest.raises(ValueError):
        reidemeister_number(identity_morphism(s3), "guess")


def test_methods_agree_on_small_catalog(small_groups, endos_of):
    for name, group in small_groups.items():
        for phi in endos_of(name):
            assert (reidemeister_number(phi, "orbits")
                    == reidemeister_number(phi, "fixed-classes")), name


def test_inner_automorphisms_have_maximal_count(catalog_groups):
    for name, group in catalog_groups.items():
        k = group.conjugacy_classes().count
        for h in range(group.order):
            assert reidemeister_number(inner_automorphism(group, h)) == k


def test_count_bounds_and_characterizations(small_groups, endos_of):
    for name, group in small_groups.items():
        k = group.conjugacy_classes().count
        for phi in endos_of(name):
            r = reidemeister_number(phi)
            assert 1 <= r <= k
            assert (r == k) == phi.is_class_preserving()
            assert (r == 1) == phi.is_fixed_point_free()


def test_method_disagreement_is_raised_on_corrupt_data(s3, monkeypatch):
    phi = identity_morphism(s3)
    import twistspec.twisted as twisted_mod
    real = twisted_mod.twisted_classes

    class Fake:
        count = 99

    monkeypatch.setattr(twisted_mod, "twisted_classes", lambda m: Fake())
    with pytest.raises(MethodDisagreement):
        twisted_mod.reidemeister_number(phi, "checked")
    monkeypatch.setattr(twisted_mod, "twisted_classes", real)


# -- reduction to the injective quotient ------------------------------------------

def test_reduction_on_automorphism_is_trivially_true(s3):
    assert reduction_check(identity_morphism(s3))


def test_reduction_on_doubling():
    z4 = build(cyclic(4))
    doubling = Morphism(z4, z4, [z4.power(i, 2) for i in range(4)])
    assert reidemeister_number(doubling) == 1
    assert reduction_check(doubling)


def test_reduction_on_sign_like(s3):
    t = Permutation.from_cycles(3, (1, 2))
    phi = morphism_from_images(s3, s3, [t, Permutation.identity(3)])
    assert reidemeister_number(phi) == 2
    induced = phi.induced_on_quotient(phi.iterated_kernel())
    assert reidemeister_number(induced) == 2
    assert reduction_check(phi)


def test_reduction_across_small_catalog(small_groups, endos_of):
    for name in small_groups:
        for phi in endos_of(name):
            assert reduction_check(phi), name


def test_orbit_stabiliser_identity(small_groups, endos_of):
    for name, group in small_groups.items():
        for phi in endos_of(name):
            partition = twisted_classes(phi)
            assert (partition.identity_class_size()
                    * phi.fixed_point_count() == group.order)
