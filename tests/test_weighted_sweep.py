"""The weighted sweep over Inn(G)-orbits against the full enumerations.

R(tau_h . phi) = R(phi), so one morphism per Inn(G)-orbit, weighted by the
orbit's size, gives the same multisets as sweeping every morphism, and the
theorem battery gives the same verdicts.  The full enumerations expand each
representative into its orbit (``oracles.every_morphism``).  Checked on
every catalog group (Hol(Z15) among them), on A6 and S6, and on A5 given by
a redundant generating set of three search generators, where the
centraliser chain goes three levels deep.
"""

import json
from collections import Counter

import pytest

import oracles
import twistspec.morphism as morphism_mod
import twistspec.spectra as spectra_mod
from twistspec.catalog import (GroupDefinition, alternating, build,
                               holomorph_cyclic, save, shipped_catalog,
                               symmetric)
from twistspec.cli import main
from twistspec.group import FiniteGroup
from twistspec.morphism import inner_automorphism, weighted_sweep
from twistspec.perm import Permutation
from twistspec.spectra import (classify, extended_spectrum, spectrum,
                               theorem_battery)
from twistspec.twisted import (reduction_check, reidemeister_number,
                               twisted_classes)


def _redundant_a5():
    """A5 given by (a, b, a*b, identity): three distinct non-identity
    generators, all kept by the morphism search."""
    defn = alternating(5)
    first, second = defn.permutations()
    perms = (first, second, first * second, Permutation.identity(5))
    return GroupDefinition("A5-redundant", 5, [p.to_one_based() for p in perms],
                           defn.expected)


# Hol(Z15) is in the catalog.
CASES = [*shipped_catalog(), alternating(6), symmetric(6), _redundant_a5()]

# (|Aut|, |End|), known independently of the search.
KNOWN_COUNTS = {"A6": (1440, 1441), "S6": (1440, 1516)}


@pytest.fixture(scope="module", params=CASES, ids=lambda defn: defn.name)
def case(request):
    """The group with its full enumerations and the weighted sweeps."""
    group = build(request.param)
    classes = group.conjugacy_classes()
    return {
        "group": group,
        "classes": classes,
        "endos": oracles.morphisms(group),
        "autos": oracles.morphisms(group, automorphisms=True),
        "end_sweep": list(weighted_sweep(group)),
        "aut_sweep": list(weighted_sweep(group, automorphisms=True)),
    }


def _oracle(morphisms, classes):
    values = Counter(reidemeister_number(phi) for phi in morphisms)
    preserving = sum(1 for phi in morphisms
                     if phi.is_automorphism()
                     and oracles.is_class_preserving(phi, classes))
    return values, preserving


def _weighted(pairs, classes):
    values = Counter()
    preserving = 0
    for phi, weight in pairs:
        values[reidemeister_number(phi)] += weight
        if (phi.is_automorphism()
                and oracles.is_class_preserving(phi, classes)):
            preserving += weight
    return values, preserving


def test_extended_spectrum_and_end_count(case):
    classes = case["classes"]
    assert (_weighted(case["end_sweep"], classes)
            == _oracle(case["endos"], classes))
    assert sum(w for _, w in case["end_sweep"]) == len(case["endos"])
    if case["group"].name in KNOWN_COUNTS:
        assert ((len(case["autos"]), len(case["endos"]))
                == KNOWN_COUNTS[case["group"].name])


def test_spectrum_aut_count_and_class_preserving(case):
    classes = case["classes"]
    want = _oracle(case["autos"], classes)
    assert _weighted(case["aut_sweep"], classes) == want
    assert all(phi.is_automorphism() for phi, _ in case["aut_sweep"])
    assert sum(w for _, w in case["aut_sweep"]) == len(case["autos"])
    # The automorphisms among the End sweep's representatives agree too.
    autos_in_end = [(phi, w) for phi, w in case["end_sweep"]
                    if phi.is_automorphism()]
    assert _weighted(autos_in_end, classes) == want


def test_classify_and_spectra_are_views_of_the_sweep(case, monkeypatch):
    group, classes = case["group"], case["classes"]
    ext_values, _ = _oracle(case["endos"], classes)
    aut_values, preserving = _oracle(case["autos"], classes)
    report = classify(group)
    assert report.extended_spectrum == dict(sorted(ext_values.items()))
    assert report.spectrum == dict(sorted(aut_values.items()))
    assert report.end_count == len(case["endos"])
    assert report.aut_count == len(case["autos"])
    assert report.class_preserving_aut_count == preserving
    assert spectrum(group) == report.spectrum
    assert extended_spectrum(group) == report.extended_spectrum
    skipped = classify(group, extended=False)
    assert skipped.spectrum == report.spectrum
    assert skipped.class_preserving_aut_count == preserving
    # With the battery, its End sweep is the only one and gives the same
    # report, whether or not the extended fields are asked for.
    checks = theorem_battery(group)
    calls = []
    search = spectra_mod._search

    def counted(group, automorphisms, tracker, phase):
        calls.append(automorphisms)
        return search(group, automorphisms, tracker, phase)

    monkeypatch.setattr(spectra_mod, "_search", counted)
    for extended, two_pass in ((True, report), (False, skipped)):
        calls.clear()
        one_pass = classify(group, extended=extended, battery=True)
        assert calls == [False]
        assert one_pass == two_pass._replace(theorem_battery=checks)


def test_battery_over_representatives_matches_every_morphism(case):
    """Same checks, same verdicts, and a witness exactly where the battery
    over every endomorphism has one."""
    group = case["group"]
    want = [(chk.name, chk.passed, chk.witness is None)
            for chk in oracles.battery_over(group, case["endos"])]
    got = [(chk.name, chk.passed, chk.witness is None)
           for chk in theorem_battery(group)]
    assert got == want


def test_reduction_check_counts_the_induced_classes(case):
    """For each representative, its twisted classes, the battery's orbit
    pass, are those swept on the product table, and its count on the
    classes of G/N, N its stable kernel, equals the orbits on G of the
    twisted maps together with N's columns; for a nontrivial N it numbers
    the twisted classes of the oracle's induced map on G/N, by either
    method."""
    table = oracles.product_table(case["group"])
    for phi, _ in case["end_sweep"]:
        tower = phi.iterated_kernel()
        count = reidemeister_number(phi)
        oracles.assert_twisted_classes(phi, table)
        reduced = oracles.assert_quotient_count(phi)
        if tower.is_trivial():
            # G/1 is G and the induced map is phi itself.
            assert reduced == count == twisted_classes(phi).count
            continue
        assert reduced == count == reidemeister_number(
            oracles.induced_on_quotient(phi, tower))
        assert reduction_check(phi, count)
        assert not reduction_check(phi, count + 1)
        assert oracles.reduced_count(phi) == count
        assert oracles.reduced_count(phi, "orbits") == count


SMALL = [defn for defn in shipped_catalog() if defn.expected["order"] <= 24]


@pytest.mark.parametrize("defn", SMALL, ids=lambda defn: defn.name)
def test_weights_are_inner_orbit_sizes(defn):
    group = build(defn)
    inners = [inner_automorphism(group, h) for h in range(group.order)]
    seen = set()
    for phi, weight in weighted_sweep(group):
        orbit = {inner.compose(phi).table for inner in inners}
        assert weight == len(orbit)
        assert seen.isdisjoint(orbit), "two representatives share an orbit"
        seen |= orbit
    assert len(seen) == len(oracles.every_morphism(group))


def test_chain_goes_three_levels_deep(monkeypatch):
    group = build(_redundant_a5())
    assert len(group.small_generating_set()) == 3
    inner_steps = []
    centralizer = FiniteGroup.centralizer

    def spied(self, y, within=None):
        inner_steps.append(within is not None and within.order < self.order)
        return centralizer(self, y, within)

    monkeypatch.setattr(FiniteGroup, "centralizer", spied)
    assert sum(w for _, w in weighted_sweep(group)) == 121
    # A centraliser taken inside a proper C_G(c_0) is a stabiliser of
    # depth 2.
    assert any(inner_steps)


@pytest.mark.parametrize("defn, aut, end, bound", [
    # Measured: 101 and 1895 search nodes (calls of _extend).  The flat grid
    # that verified every full tuple of images made 97 and 21431 attempts.
    (symmetric(6), 1440, 1516, 200),
    (holomorph_cyclic(21), 252, 2160, 4000),
])
def test_extended_spectrum_work_bound(defn, aut, end, bound, tmp_path,
                                      monkeypatch, capsys):
    path = tmp_path / "group.json"
    save(defn, path)
    nodes = 0
    extend = morphism_mod._extend

    def counted(*args):
        nonlocal nodes
        nodes += 1
        return extend(*args)

    monkeypatch.setattr(morphism_mod, "_extend", counted)
    # Inside the default product budget.
    assert main(["spectrum", str(path), "--extended", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["aut_count"], doc["end_count"]) == (aut, end)
    assert doc["annotations"] == []
    assert 0 < nodes <= bound
