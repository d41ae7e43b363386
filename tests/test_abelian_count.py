"""The abelian count: spectra of abelian groups over image subgroups.

``spectra._fold`` counts an abelian group whose search generators are
independent over the subgroups <psi(g_1), ..., psi(g_j)> instead of
sweeping End(G).  Its answers are checked against closed forms for the
elementary abelian groups Z_p^n (|End| = p^(n^2), |Aut| = |GL(n,p)|, and
R(phi) = 1 exactly when phi - 1 is an automorphism), its budget charge
through the command line, and its fallback to the sweep when the declared
generators are dependent.  The comparison with the sweep's orbit counts on
every abelian catalog group is ``test_live_fold.py``'s, on random abelian
groups ``test_random_groups.py``'s.
"""

import json
import tracemalloc

import pytest

import twistspec.spectra as spectra_mod
from twistspec.catalog import GroupDefinition, abelian, build, save
from twistspec.cli import main
from twistspec.errors import BudgetExceeded
from twistspec.spectra import classify


def gl_order(n, p):
    """|GL(n,p)|: the number of ordered bases of F_p^n."""
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (2, 4), (2, 5),
                                  (3, 2), (3, 3), (5, 2)])
def test_elementary_abelian_closed_forms(p, n):
    group = build(abelian(*[p] * n))
    report = classify(group)
    assert report.end_count == p ** (n * n)
    assert report.aut_count == gl_order(n, p)
    assert report.extended_spectrum[1] == gl_order(n, p)
    # R(id) = |G| and every other value divides |G|.
    assert report.spectrum[p ** n] == 1
    assert all(p ** n % value == 0 for value in report.extended_spectrum)


def test_z2_5_answers_under_the_default_budget(tmp_path, capsys):
    path = tmp_path / "z2_5.json"
    save(abelian(2, 2, 2, 2, 2), path)
    assert main(["spectrum", str(path), "--extended", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["end_count"] == 2 ** 25
    assert doc["aut_count"] == gl_order(5, 2) == 9999360


def test_the_count_honours_the_budget(tmp_path, capsys):
    path = tmp_path / "z2_4.json"
    save(abelian(2, 2, 2, 2), path)
    assert main(["spectrum", str(path), "--extended", "--budget", "100"]) == 2
    assert "budget 100 exceeded" in capsys.readouterr().err


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
            spectra_mod._fold(group, False, 3 * 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.fixture
def searches(monkeypatch):
    """Counts the calls of the morphism search made by the spectra."""
    calls = []
    search = spectra_mod._search

    def spied(group, automorphisms, budget):
        calls.append(automorphisms)
        return search(group, automorphisms, budget)

    monkeypatch.setattr(spectra_mod, "_search", spied)
    return calls


def z4_z2(dependent):
    """Z4 x Z2 on 6 points, from a and b, or from a and ab when
    ``dependent`` (orders 4 and 4, whose product 16 is not 8)."""
    a, b = [2, 3, 4, 1, 5, 6], [1, 2, 3, 4, 6, 5]
    ab = [2, 3, 4, 1, 6, 5]
    return GroupDefinition("Z4xZ2", 6, [a, ab if dependent else b],
                           {"order": 8})


def test_dependent_generators_fall_back_to_the_sweep(searches):
    dependent = build(z4_z2(True))
    independent = build(z4_z2(False))
    assert dependent.small_generating_set() == dependent.generator_indices()
    want = [spectra_mod._fold(independent, automorphisms, None)
            for automorphisms in (False, True)]
    assert searches == []
    got = [spectra_mod._fold(dependent, automorphisms, None)
           for automorphisms in (False, True)]
    assert searches == [False, True]
    assert got == want
    # |End| is the product of gcd(n_i, n_j) over the factor orders;
    # |Aut(Z4 x Z2)| = 8.
    assert sum(want[0][1].values()) == 4 * 2 * 2 * 2
    assert sum(want[1][0].values()) == 8
