"""The per-tower cache behind the reduction check.

``FiniteGroup.normal_cosets`` verifies a kernel tower N (closure,
normality, cosets of |N| members each) once per distinct member tuple;
the phi-invariance of N (``Morphism.iterated_kernel``) and the injectivity
of the induced map (``reduction_check``) are checked for every phi.  Spies
count the once-per-tower checks, and patched towers show that every
assertion still fires, also on a cache hit.
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

NORMAL_COSETS = FiniteGroup.normal_cosets.__code__

CASES = [*shipped_catalog(), alternating(6), symmetric(6)]


def _spy_on_cache_builds(monkeypatch, drop_last_generator=False):
    """Record the member tuples that ``normal_cosets`` passes to
    ``subgroup`` and ``is_normal``, that is, the towers it builds.  With
    ``drop_last_generator`` the subgroups it builds lose their last
    generator, so their right-multiplication orbits shrink."""
    built = {"subgroup": [], "is_normal": []}
    real_subgroup, real_is_normal = FiniteGroup.subgroup, FiniteGroup.is_normal

    def subgroup(self, indices):
        sub = real_subgroup(self, indices)
        if sys._getframe(1).f_code is NORMAL_COSETS:
            built["subgroup"].append(sub.indices)
            if drop_last_generator:
                sub = sub._replace(generators=sub.generators[:-1])
        return sub

    def is_normal(self, sub):
        if sys._getframe(1).f_code is NORMAL_COSETS:
            built["is_normal"].append(sub.indices)
        return real_is_normal(self, sub)

    monkeypatch.setattr(FiniteGroup, "subgroup", subgroup)
    monkeypatch.setattr(FiniteGroup, "is_normal", is_normal)
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
    assert sorted(built["subgroup"]) == sorted(towers)
    assert sorted(built["is_normal"]) == sorted(towers)
    # A second battery run finds every tower cached.
    theorem_battery(group)
    assert len(built["subgroup"]) == len(built["is_normal"]) == len(towers)


def test_catalog_tower_counts(monkeypatch):
    """Work bound of the catalog battery: 3152 representatives, 1985 with a
    nontrivial tower, each of which finds its members once, and 193
    distinct nontrivial towers to verify; the 1167 automorphisms build no
    tower."""
    found = []
    real = morphism_mod._stable_kernel

    def spied(table):
        found.append(len(table))
        return real(table)

    monkeypatch.setattr(morphism_mod, "_stable_kernel", spied)
    representatives = nontrivial = towers = 0
    for defn in shipped_catalog():
        group = build(defn)
        theorem_battery(group)
        sweep = list(weighted_sweep(group))
        representatives += len(sweep)
        nontrivial += sum(not phi.is_automorphism() for phi, _ in sweep)
        towers += len(group._cosets)
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
    with pytest.raises(AssertionError, match="not normal"):
        s3.normal_cosets(members)
    _patch_tower(monkeypatch, members)
    path = tmp_path / "s3.json"
    save(symmetric(3), path)
    assert main(["verify", str(path)]) == 4
    assert "internal error: subgroup is not normal" in capsys.readouterr().err


def test_unequal_cosets_are_an_internal_error(monkeypatch, tmp_path, capsys):
    # Z2 x Z2 needs two generators; without the second, right
    # multiplication has orbits of size 2, not |N| = 4.
    group = build(abelian(2, 2))
    _spy_on_cache_builds(monkeypatch, drop_last_generator=True)
    with pytest.raises(AssertionError, match="cosets"):
        group.normal_cosets(tuple(range(4)))
    path = tmp_path / "z2xz2.json"
    save(abelian(2, 2), path)
    assert main(["verify", str(path)]) == 4
    err = capsys.readouterr().err
    assert "internal error: cosets do not all have |N| members" in err


def test_per_phi_checks_fire_on_a_cache_hit(monkeypatch):
    # N = <a> in Z2 x Z2 = <a, b>, imposed on every phi.  The identity
    # builds the cache entry; the swap of a and b, a cache hit, does not
    # keep N, and the projection onto <a>, another hit, keeps N but sends
    # b into it.
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
    with pytest.raises(AssertionError, match="not invariant"):
        swap.iterated_kernel()
    with pytest.raises(AssertionError, match="not injective"):
        reduction_check(projection, 2)
    assert built["subgroup"] == built["is_normal"] == [members]
