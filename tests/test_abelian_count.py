"""The abelian count: spectra of abelian groups over image subgroups.

``spectra._fold`` counts every abelian group, whose search generators are
a basis, over the subgroups <psi(g_1), ..., psi(g_j)> instead of
sweeping End(G).  Its answers are checked against closed forms for the
elementary abelian groups Z_p^n (|End| = p^(n^2), |Aut| = |GL(n,p)|, and
R(phi) = p^(n - rank(phi - 1))) and for the cyclic groups, where the last
generator is the only one, its budget charge, pinned and through the
command line, that it runs once when it runs out of budget, and that
groups declared by dependent generators take the count too, with the
sweep's counters.  The
comparison with the sweep's orbit counts on every abelian catalog group
is ``test_live_fold.py``'s, on random abelian groups
``test_random_groups.py``'s.
"""

import json
import tracemalloc
from collections import Counter
from math import gcd

import pytest

import oracles
import twistspec.spectra as spectra_mod
from twistspec.catalog import GroupDefinition, abelian, build, cyclic, save
from twistspec.cli import main
from twistspec.errors import BudgetExceeded
from twistspec.group import _Budget
from twistspec.morphism import weighted_sweep
from twistspec.spectra import classify


def gl_order(n, p):
    """|GL(n,p)|: the number of ordered bases of F_p^n."""
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


def rank_count(n, p, r):
    """The number of n x n matrices of rank r over F_p: pairs of injective
    maps F_p^r -> F_p^n, a column space and a row space, modulo GL(r, p)."""
    pairs, bases = 1, 1
    for i in range(r):
        pairs *= (p ** n - p ** i) ** 2
        bases *= p ** r - p ** i
    return pairs // bases


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (2, 4), (2, 5),
                                  (3, 2), (3, 3), (5, 2)])
def test_elementary_abelian_closed_forms(p, n):
    group = build(abelian(*[p] * n))
    report = classify(group)
    assert report.end_count == p ** (n * n)
    assert report.aut_count == gl_order(n, p)
    # R(phi) = |ker(phi - 1)| = p^(n - r) for phi - 1 of rank r, and
    # phi - 1 runs over all matrices as phi does: for Z2^4, {16: 1, 8: 225,
    # 4: 7350, 2: 37800, 1: 20160}.
    assert report.extended_spectrum == {
        p ** (n - r): rank_count(n, p, r) for r in range(n, -1, -1)}
    assert report.spectrum[p ** n] == 1


@pytest.mark.parametrize("n", range(1, 65))
def test_cyclic_closed_form(n):
    """phi_a(x) = a x on Z_n fixes the gcd(a - 1, n) solutions of
    (a - 1) x = 0, and is an automorphism exactly when a is a unit."""
    spec, ext = spectra_mod._fold(build(cyclic(n)), False, _Budget(None))
    assert ext == Counter(gcd(a - 1, n) for a in range(n))
    assert spec == Counter(gcd(a - 1, n) for a in range(n)
                           if gcd(a, n) == 1)


@pytest.mark.parametrize("orders, total", [
    ((2, 2, 2, 2), 18987), ((2, 2, 4), 1591), ((5, 5), 1776)])
def test_the_count_charges_a_pinned_total(orders, total):
    """States times candidates, joins and the last depth's column reads:
    the count answers at ``total`` and stops one unit below it."""
    group = build(abelian(*orders))
    group.small_generating_set()  # scanned unbudgeted: only the count charges
    with pytest.raises(BudgetExceeded):
        spectra_mod._fold(group, False, _Budget(total - 1))
    assert (spectra_mod._fold(group, False, _Budget(total))
            == spectra_mod._fold(group, False, _Budget(None)))


def test_z2_5_answers_under_the_default_budget(tmp_path, capsys):
    path = tmp_path / "z2_5.json"
    save(abelian(2, 2, 2, 2, 2), path)
    assert main(["spectrum", str(path), "--extended", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["end_count"] == 2 ** 25
    assert doc["aut_count"] == gl_order(5, 2) == 9999360


def test_the_count_honours_the_budget(tmp_path, capsys):
    """Z2^4's four declared generators are a basis, so nothing is scanned
    and the count is the first phase to charge."""
    path = tmp_path / "z2_4.json"
    save(abelian(2, 2, 2, 2), path)
    assert main(["spectrum", str(path), "--extended", "--budget", "100"]) == 2
    assert capsys.readouterr().err == (
        "error: product budget 100 exceeded in the abelian count\n")


def test_a_count_out_of_budget_runs_once(tmp_path, capsys, monkeypatch):
    """The count gives the End and Aut counters at once, so when
    ``classify``'s End fold runs out of budget there, the error propagates
    rather than the Aut fold running the same count again."""
    calls = []
    count = spectra_mod._count_abelian

    def spied(group, tracker):
        calls.append(tracker.limit)
        return count(group, tracker)

    monkeypatch.setattr(spectra_mod, "_count_abelian", spied)
    with pytest.raises(BudgetExceeded,
                       match="budget 5000 exceeded in the abelian count$"):
        classify(build(abelian(2, 2, 2, 2)), budget=5000)
    assert calls == [5000]
    path = tmp_path / "z2_4.json"
    save(abelian(2, 2, 2, 2), path)
    assert main(["spectrum", str(path), "--extended", "--budget",
                 "5000"]) == 2
    assert capsys.readouterr().err == (
        "error: product budget 5000 exceeded in the abelian count\n")
    assert calls == [5000, 5000]


def test_states_are_charged_as_they_are_made():
    """Z2^7 has 2^49 endomorphisms and 128 candidates per generator.
    Charged only when a depth starts, the states of the third depth were
    all built under this budget before the fourth ran out (a 35 MiB peak
    under tracemalloc); charged as they are made, the count stops at about
    5 MiB."""
    group = build(abelian(*[2] * 7))
    group.conjugacy_classes()
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            spectra_mod._fold(group, False, _Budget(3 * 10 ** 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.fixture
def searches(monkeypatch):
    """Counts the calls of the morphism search made by the spectra."""
    calls = []
    search = spectra_mod._search

    def spied(group, automorphisms, tracker, phase):
        calls.append(automorphisms)
        return search(group, automorphisms, tracker, phase)

    monkeypatch.setattr(spectra_mod, "_search", spied)
    return calls


def z4_z2(dependent):
    """Z4 x Z2 on 6 points, from a and b, or from a and ab when
    ``dependent`` (orders 4 and 4, whose product 16 is not 8)."""
    a, b = [2, 3, 4, 1, 5, 6], [1, 2, 3, 4, 6, 5]
    ab = [2, 3, 4, 1, 6, 5]
    return GroupDefinition("Z4xZ2", 6, [a, ab if dependent else b],
                           {"order": 8})


def _sweep_tally(group, automorphisms):
    """The fold's counters the slow way: the orbit count of every
    representative of the weighted sweep.  Only the first counter of an
    Aut fold is read, here and in ``_read_fold``."""
    sweep = weighted_sweep(group, automorphisms=automorphisms)
    return oracles.tally(list(sweep), "orbits")[:1 if automorphisms else 2]


def _read_fold(group, automorphisms):
    """The counters of ``_fold`` that its callers read."""
    tally = spectra_mod._fold(group, automorphisms, _Budget(None))
    return tally[:1 if automorphisms else 2]


def test_dependent_generators_take_the_count(searches):
    dependent = build(z4_z2(True))
    independent = build(z4_z2(False))
    assert dependent.small_generating_set() != dependent.generator_indices()
    got = [_read_fold(dependent, automorphisms)
           for automorphisms in (False, True)]
    want = [_read_fold(independent, automorphisms)
            for automorphisms in (False, True)]
    assert searches == []
    assert got == want == [_sweep_tally(dependent, automorphisms)
                           for automorphisms in (False, True)]
    # |End| is the product of gcd(n_i, n_j) over the factor orders;
    # |Aut(Z4 x Z2)| = 8.
    assert sum(want[0][1].values()) == 4 * 2 * 2 * 2
    assert sum(want[1][0].values()) == 8


@pytest.mark.parametrize("defn", oracles.random_generating_sets(),
                         ids=lambda defn: defn.name)
def test_random_generating_sets_take_the_count(defn, searches):
    group = build(defn)
    for automorphisms in (False, True):
        assert (_read_fold(group, automorphisms)
                == _sweep_tally(group, automorphisms))
    assert searches == []
