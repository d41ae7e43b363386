import pytest

import oracles
import twistspec.morphism as morphism_mod
from oracles import identity_morphism

from twistspec.morphism import (Morphism, inner_automorphism,
                                morphism_from_images, weighted_sweep)
from twistspec.perm import Permutation
from twistspec.twisted import (induced_class_map, reduction_check,
                               reidemeister_number, twisted_classes)
from twistspec.catalog import alternating, build, cyclic, save, symmetric
from twistspec.cli import main
from twistspec.spectra import _witness, theorem_battery


@pytest.fixture(scope="module")
def s3():
    return build(symmetric(3))


def brute_twisted_partition(phi):
    """Oracle straight from the definition: g1 ~ g2 iff g1 = h g2 phi(h)^-1."""
    table = oracles.product_table(phi.group)
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
    trivial = morphism_from_images(s3, [Permutation.identity(3)] * 2)
    partition = twisted_classes(trivial)
    assert partition.count == 1
    assert partition.sizes == (6,)


def test_inversion_on_z4_gives_even_cosets():
    z4 = build(cyclic(4))
    inversion = Morphism(z4, [z4.inverse(i) for i in range(4)])
    partition = twisted_classes(inversion)
    assert partition.count == 2
    two = oracles.power(z4, 1, 2)
    first = {i for i in range(4) if partition.class_of[i] == 0}
    assert first == {0, two}
    assert reidemeister_number(inversion) == 2


def test_twisted_partition_matches_definition_oracle(s3):
    for phi in oracles.morphisms(s3):
        partition = twisted_classes(phi)
        mine = {
            frozenset(i for i in range(s3.order)
                      if partition.class_of[i] == c)
            for c in range(partition.count)
        }
        assert mine == brute_twisted_partition(phi)


# -- induced class map ---------------------------------------------------------

def test_induced_map_of_identity_is_identity(s3):
    mapping = induced_class_map(identity_morphism(s3))
    assert mapping == tuple(range(s3.conjugacy_classes().count))


def test_induced_map_of_trivial_is_constant(s3):
    trivial = morphism_from_images(s3, [Permutation.identity(3)] * 2)
    assert set(induced_class_map(trivial)) == {0}


def test_induced_map_swaps_a4_cycle_classes():
    a4 = build(alternating(4))
    swap = Permutation.from_cycles(4, (1, 2))
    phi = morphism_from_images(
        a4, [swap * g * swap.inverse() for g in a4.generators])
    mapping = induced_class_map(phi)
    classes = a4.conjugacy_classes()
    three_cycle_classes = [c for c in range(classes.count)
                           if classes.sizes[c] == 4]
    a, b = three_cycle_classes
    assert mapping[a] == b and mapping[b] == a
    fixed = [c for c in range(classes.count) if mapping[c] == c]
    assert len(fixed) == 2


def test_map_independent_of_representative(s3):
    classes = s3.conjugacy_classes()
    for phi in oracles.morphisms(s3):
        mapping = induced_class_map(phi)
        for g in range(s3.order):
            assert (classes.class_of[phi.table[g]]
                    == mapping[classes.class_of[g]])


# -- counting -------------------------------------------------------------------

def test_identity_count_is_class_number(s3):
    assert reidemeister_number(identity_morphism(s3)) == 3


def test_trivial_morphism_count_is_one(s3):
    trivial = morphism_from_images(s3, [Permutation.identity(3)] * 2)
    assert reidemeister_number(trivial) == 1


def test_methods_agree_on_small_catalog(small_groups, endos_of):
    for name, group in small_groups.items():
        for phi in endos_of(name):
            assert (twisted_classes(phi).count
                    == reidemeister_number(phi)), name


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
            assert (r == k) == oracles.is_class_preserving(phi)
            # R = 1 exactly when phi fixes only the identity.
            assert (r == 1) == (phi.fixed_point_count() == 1)


# -- reduction to the injective quotient ------------------------------------------

def test_reduction_on_automorphism_is_trivially_true(s3):
    # An injective map is its own reduction: nothing is counted.
    assert reduction_check(identity_morphism(s3), 3)
    assert reduction_check(identity_morphism(s3), 0)


def test_reduction_on_doubling():
    z4 = build(cyclic(4))
    doubling = Morphism(z4, [oracles.power(z4, i, 2) for i in range(4)])
    assert reidemeister_number(doubling) == 1
    assert reduction_check(doubling, 1)
    assert not reduction_check(doubling, 2)


def test_reduction_on_sign_like(s3):
    t = Permutation.from_cycles(3, (1, 2))
    phi = morphism_from_images(s3, [t, Permutation.identity(3)])
    assert reidemeister_number(phi) == 2
    induced = oracles.induced_on_quotient(phi, phi.iterated_kernel())
    assert reidemeister_number(induced) == 2
    assert reduction_check(phi, 2)
    assert not reduction_check(phi, 1)


def test_reduction_across_small_catalog(small_groups, endos_of):
    for name in small_groups:
        for phi in endos_of(name):
            assert reduction_check(phi, reidemeister_number(phi)), name


def _whole_group_for_non_injective(monkeypatch):
    real = morphism_mod._stable_kernel

    def patched(table):
        if table.count(0) == 1:
            return real(table)
        return tuple(range(len(table)))

    monkeypatch.setattr(morphism_mod, "_stable_kernel", patched)


def test_reduction_failure_is_reported(s3, monkeypatch, tmp_path, capsys):
    # With N = G every non-injective phi reduces to one class, so the first
    # representative with R(phi) > 1 must be the witness.
    _whole_group_for_non_injective(monkeypatch)
    witness = next(phi for phi, _ in weighted_sweep(s3)
                   if not phi.is_automorphism()
                   and reidemeister_number(phi) > 1)
    checks = {chk.name: chk for chk in theorem_battery(s3)}
    failed = checks["reduction-to-injective"]
    assert not failed.passed
    assert failed.witness["generator_images"] == \
        _witness(s3, witness.generator_images, "")["generator_images"]
    assert all(chk.passed for name, chk in checks.items()
               if name != "reduction-to-injective")
    path = tmp_path / "s3.json"
    save(symmetric(3), path)
    assert main(["verify", str(path)]) == 3
    assert "FAIL  S3  reduction-to-injective" in capsys.readouterr().out


def test_non_injective_reduction_is_an_internal_error(monkeypatch, tmp_path,
                                                     capsys):
    # Patched to ker phi alone, N = {0, 4} for the doubling map of Z8:
    # phi(2) = 4 lies in N although 2 does not, so phi^-1(N) is larger
    # than N.
    z8 = build(cyclic(8))
    doubling = Morphism(z8, [oracles.power(z8, i, 2) for i in range(8)])
    monkeypatch.setattr(
        morphism_mod, "_stable_kernel",
        lambda table: tuple(x for x, t in enumerate(table) if t == 0))
    with pytest.raises(AssertionError, match="not its own preimage"):
        doubling.iterated_kernel()
    with pytest.raises(AssertionError, match="not its own preimage"):
        reduction_check(doubling, reidemeister_number(doubling))
    path = tmp_path / "z8.json"
    save(cyclic(8), path)
    assert main(["verify", str(path)]) == 4
    assert "internal error" in capsys.readouterr().err


def test_orbit_stabiliser_identity(small_groups, endos_of):
    for name, group in small_groups.items():
        for phi in endos_of(name):
            partition = twisted_classes(phi)
            assert (partition.identity_class_size()
                    * phi.fixed_point_count() == group.order)
