"""The theorem battery, which reads the search's live tables, against the
slow battery that builds a Morphism per representative
(``oracles.morphism_battery``).

Both must give the same checks with the same witnesses and the same
counters (``oracles.assert_battery_matches``): on every catalog group, on
A6, S6 and Hol(Z21), and, under a fixed-class count that is one too many
on chosen representatives, with the first failures compared.  The
Hypothesis strategies of ``test_random_groups`` run the same comparison.
The battery's work is pinned too: its orbit passes, each a call of
``orbits`` from ``spectra``, and its budget charges.
"""

from collections import Counter

import pytest

import oracles
import twistspec.group as group_mod
import twistspec.spectra as spectra_mod
import twistspec.twisted as twisted_mod
from twistspec.catalog import (alternating, build, holomorph_cyclic,
                               shipped_catalog, symmetric)
from twistspec.morphism import DEFAULT_PRODUCT_BUDGET, weighted_sweep
from twistspec.spectra import _fold
from twistspec.twisted import (reduction_check, reidemeister_number,
                               twisted_classes)

CASES = [*shipped_catalog(), alternating(6), symmetric(6),
         holomorph_cyclic(21)]


@pytest.mark.parametrize("defn", CASES, ids=lambda defn: defn.name)
def test_battery_matches_the_morphism_battery(defn):
    oracles.assert_battery_matches(build(defn))


def test_catalog_battery_orbit_passes(monkeypatch):
    """The catalog battery counts the twisted classes of 3152
    representatives and of 498 inner twists, one per declared generator of
    each representative of weight > 1 that the generator moves."""
    images = []
    one_pass = spectra_mod.orbits

    def spied(size, maps):
        images.append(oracles.twisted_map_images(group, maps))
        return one_pass(size, maps)

    monkeypatch.setattr(spectra_mod, "orbits", spied)
    passes = Counter()
    for defn in shipped_catalog():
        group = build(defn)
        images.clear()
        spectra_mod.theorem_battery(group)
        representatives = {phi.generator_images
                           for phi, _ in weighted_sweep(group)}
        passes.update(image in representatives for image in images)
    assert (passes[True], passes[False]) == (3152, 498)


def test_catalog_battery_orbit_calls(monkeypatch):
    """The catalog battery runs one orbit pass per twisted class count,
    3152 + 498, each a call of ``orbits`` from ``spectra`` and none through
    ``twisted_classes``.  R on G/N is read apart from those passes, off the
    classes of G/N (``_quotient_count``), once per representative that is
    not injective: 1985 of them, over 193 towers."""
    passes, quotients = [], []
    one_pass, quotient_count = (spectra_mod.orbits,
                                spectra_mod._quotient_count)

    def spied_pass(size, maps):
        passes.append(size)
        return one_pass(size, maps)

    def spied_quotient(group, table):
        quotients.append(table.count(0))
        return quotient_count(group, table)

    def public(size, maps):
        raise AssertionError("the battery went through twisted_classes")

    monkeypatch.setattr(spectra_mod, "orbits", spied_pass)
    monkeypatch.setattr(spectra_mod, "_quotient_count", spied_quotient)
    monkeypatch.setattr(twisted_mod, "orbits", public)
    towers = 0
    for defn in shipped_catalog():
        group = build(defn)
        spectra_mod.theorem_battery(group)
        towers += len(group._quotients)
    assert (len(passes), len(quotients), towers) == (3650, 1985, 193)
    # Only a map with a nontrivial kernel reaches the quotient count.
    assert min(quotients) > 1


def test_battery_leaves_the_public_checks_nothing_to_build():
    """The battery's twisted maps are the group's: after it,
    ``twisted_classes`` and ``reduction_check`` on every representative add
    no entry to the group's cache, whose keys are all (generator position,
    image) pairs."""
    for defn in shipped_catalog():
        group = build(defn)
        spectra_mod.theorem_battery(group)
        cached = set(group._twisted)
        for phi, _ in weighted_sweep(group):
            twisted_classes(phi)
            assert reduction_check(phi, reidemeister_number(phi))
        assert set(group._twisted) == cached, defn.name
        assert all(len(key) == 2 and 0 <= key[0] < len(group.generators)
                   and 0 <= key[1] < group.order for key in cached), defn.name


@pytest.mark.parametrize("defn", [symmetric(4), symmetric(6),
                                  holomorph_cyclic(21)],
                         ids=lambda defn: defn.name)
def test_battery_charges_the_budget_as_the_end_fold(defn, monkeypatch):
    """The battery's sweep charges what the End fold charges, in the same
    order (S4 1024, S6 148854, Hol(Z21) 913962); each of its orbit passes,
    a representative's own or an inner twist's, is charged |G| times the
    declared generators just before it runs, and each quotient count |G|
    just before it runs."""
    group = build(defn)
    log = []
    charge = group_mod._Budget.charge
    one_pass, quotient_count = (spectra_mod.orbits,
                                spectra_mod._quotient_count)

    def spied(self, amount):
        log.append(amount)
        charge(self, amount)

    def spied_pass(size, maps):
        log.append("pass")
        return one_pass(size, maps)

    def spied_quotient(group, table):
        log.append("quotient")
        return quotient_count(group, table)

    monkeypatch.setattr(group_mod._Budget, "charge", spied)
    monkeypatch.setattr(spectra_mod, "orbits", spied_pass)
    monkeypatch.setattr(spectra_mod, "_quotient_count", spied_quotient)
    spectra_mod.theorem_battery(group)
    battery = list(log)
    log.clear()
    _fold(group, False, group_mod._Budget(DEFAULT_PRODUCT_BUDGET))
    cost = group.order * len(group.generators)
    passes = [i for i, item in enumerate(battery) if item == "pass"]
    quotients = [i for i, item in enumerate(battery) if item == "quotient"]
    assert all(battery[i - 1] == cost for i in passes)
    assert all(battery[i - 1] == group.order for i in quotients)
    charged = {j for i in passes + quotients for j in (i, i - 1)}
    assert [item for i, item in enumerate(battery) if i not in charged] == log
    pinned = {"S4": (11, 4, 1024 + 11 * 24 * 2 + 4 * 24),
              "S6": (13, 4, 148854 + 13 * 720 * 2 + 4 * 720),
              "Hol(Z21)": (214, 77, 913962 + 214 * 252 * 3 + 77 * 252)}
    total = sum(item for item in battery if isinstance(item, int))
    assert (len(passes), len(quotients), total) == pinned[group.name]
