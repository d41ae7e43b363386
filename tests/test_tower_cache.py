"""The per-tower cache behind the reduction check.

``FiniteGroup.quotient_classes`` verifies a kernel tower N (closure, and
N as the identity's class of G/N, which also proves N normal) once per
distinct member tuple; phi^-1(N) = N, that is, N is phi-invariant and the
induced map is injective, is checked for every phi
(``Morphism.iterated_kernel``).  Spies
count the once-per-tower checks, patched towers show that every assertion
still fires, also on a cache hit, and the classes of G/N kept for every
tower the battery builds are held to the quotient oracle.
"""

import sys

import pytest

import oracles
import twistspec.morphism as morphism_mod
from twistspec.catalog import (abelian, alternating, build, save,
                               shipped_catalog, symmetric)
from twistspec.cli import main
from twistspec.group import FiniteGroup
from twistspec.morphism import morphism_from_images, weighted_sweep
from twistspec.perm import Permutation
from twistspec.spectra import theorem_battery
from twistspec.twisted import reduction_check

QUOTIENT_CLASSES = FiniteGroup.quotient_classes.__code__

CASES = [*shipped_catalog(), alternating(6), symmetric(6)]


def _spy_on_cache_builds(monkeypatch, drop_last_generator=False):
    """Record the member tuples that ``quotient_classes`` passes to
    ``subgroup``, that is, the towers it builds.  With ``drop_last_generator``
    the subgroups it builds lose their last generator, so the identity's
    class may fall short of N."""
    built = []
    real_subgroup = FiniteGroup.subgroup

    def subgroup(self, indices):
        sub = real_subgroup(self, indices)
        if sys._getframe(1).f_code is QUOTIENT_CLASSES:
            built.append(sub.indices)
            if drop_last_generator:
                sub = sub._replace(generators=sub.generators[:-1])
        return sub

    monkeypatch.setattr(FiniteGroup, "subgroup", subgroup)
    return built


@pytest.mark.parametrize("defn", CASES, ids=lambda defn: defn.name)
def test_each_tower_is_verified_once(defn, monkeypatch):
    """Each nontrivial tower is verified once; an automorphism's tower is
    trivial, and the battery builds none for it."""
    group = build(defn)
    built = _spy_on_cache_builds(monkeypatch)
    assert all(check.passed for check in theorem_battery(group))
    towers = {tuple(oracles.iterated_kernel(phi.table))
              for phi, _ in weighted_sweep(group)} - {(0,)}
    assert sorted(built) == sorted(towers)
    # A second battery run finds every tower cached.
    theorem_battery(group)
    assert len(built) == len(towers)


@pytest.mark.parametrize("defn", CASES, ids=lambda defn: defn.name)
def test_each_tower_holds_the_classes_of_the_quotient(defn):
    """Every tower the battery builds, 193 over the catalog, keeps N as
    its identity's class and the preimages of the conjugacy classes of the
    oracle's G/N as its classes."""
    group = build(defn)
    theorem_battery(group)
    for members in group._quotients:
        oracles.assert_quotient_classes(group, group.subgroup(members))


def test_catalog_tower_counts(monkeypatch):
    """Work bound of the catalog battery: 3152 representatives, 1985 with a
    nontrivial tower, each of which finds its members once, and 193
    distinct nontrivial towers to verify, each by its identity's class
    alone, with no ``is_normal`` pass; the 1167 automorphisms build no
    tower."""
    found = []
    real = morphism_mod._stable_kernel

    def spied(table):
        found.append(len(table))
        return real(table)

    def is_normal(self, sub):
        raise AssertionError("a tower was proved normal twice")

    monkeypatch.setattr(morphism_mod, "_stable_kernel", spied)
    monkeypatch.setattr(FiniteGroup, "is_normal", is_normal)
    representatives = nontrivial = towers = 0
    for defn in shipped_catalog():
        group = build(defn)
        theorem_battery(group)
        sweep = list(weighted_sweep(group))
        representatives += len(sweep)
        nontrivial += sum(not phi.is_automorphism() for phi, _ in sweep)
        towers += len(group._quotients)
    assert (representatives, nontrivial, towers) == (3152, 1985, 193)
    assert len(found) == 1985


def _patch_tower(monkeypatch, members):
    """Every non-injective phi gets ``members`` as its tower."""
    real = morphism_mod._stable_kernel
    monkeypatch.setattr(
        morphism_mod, "_stable_kernel",
        lambda table: real(table) if table.count(0) == 1 else members)


def test_non_normal_tower_is_an_internal_error(monkeypatch, tmp_path, capsys):
    s3 = build(symmetric(3))
    transposition = s3.index_of(Permutation.from_cycles(3, (1, 2)))
    members = (0, transposition)
    assert not s3.is_normal(s3.subgroup(members))
    # The normal closure of (12) is all of S3, so the identity's class of
    # "G/N" has 6 elements against |N| = 2.
    with pytest.raises(AssertionError, match="identity class of G/N is not N"):
        s3.quotient_classes(members)
    _patch_tower(monkeypatch, members)
    path = tmp_path / "s3.json"
    save(symmetric(3), path)
    assert main(["verify", str(path)]) == 4
    err = capsys.readouterr().err
    assert "internal error: identity class of G/N is not N" in err


def test_unequal_cosets_are_an_internal_error(monkeypatch, tmp_path, capsys):
    # Z2 x Z2 needs two generators; without the second, right
    # multiplication and conjugation, trivial in an abelian group, reach
    # from the identity a class of size 2, not N, of order 4.
    group = build(abelian(2, 2))
    _spy_on_cache_builds(monkeypatch, drop_last_generator=True)
    with pytest.raises(AssertionError, match="identity class"):
        group.quotient_classes(tuple(range(4)))
    path = tmp_path / "z2xz2.json"
    save(abelian(2, 2), path)
    assert main(["verify", str(path)]) == 4
    err = capsys.readouterr().err
    assert "internal error: identity class of G/N is not N" in err


def test_a_tower_phi_does_not_keep_is_an_internal_error(monkeypatch,
                                                        tmp_path, capsys):
    # Each phi of rank 1 on Z2 x Z2 gets N = <x>, normal since the group is
    # abelian, for the first x with phi(x) neither 1 nor x: phi(N) is not
    # in N.  The trivial phi keeps its true tower.
    real = morphism_mod._stable_kernel

    def patched(table):
        moved = [x for x, t in enumerate(table) if t not in (0, x)]
        return (0, moved[0]) if moved else real(table)

    monkeypatch.setattr(morphism_mod, "_stable_kernel", patched)
    path = tmp_path / "z2xz2.json"
    save(abelian(2, 2), path)
    assert main(["verify", str(path)]) == 4
    err = capsys.readouterr().err
    assert "internal error: kernel tower is not its own preimage" in err


def test_per_phi_checks_fire_on_a_cache_hit(monkeypatch):
    # N = <a> in Z2 x Z2 = <a, b>, imposed on every phi.  The identity
    # builds the cache entry; the swap of a and b, a cache hit, does not
    # keep N, and the projection onto <a>, another hit, keeps N but sends
    # b into it: neither has N as the preimage of N.
    group = build(abelian(2, 2))
    a, b = group.generator_indices()
    members = (0, a)
    monkeypatch.setattr(morphism_mod, "_stable_kernel", lambda table: members)
    built = _spy_on_cache_builds(monkeypatch)
    identity = morphism_from_images(group, [a, b])
    swap = morphism_from_images(group, [b, a])
    projection = morphism_from_images(group, [a, 0])
    assert identity.iterated_kernel().indices == members
    # The identity induces the identity on G/N = Z2, with 2 classes.
    assert reduction_check(identity, 2)
    for phi in (swap, projection):
        with pytest.raises(AssertionError, match="not its own preimage"):
            phi.iterated_kernel()
    # The swap, an automorphism, is its own reduction and builds no tower.
    with pytest.raises(AssertionError, match="not its own preimage"):
        reduction_check(projection, 2)
    assert built == [members]
