"""The spectra's fold over the search's live tables.

``spectra._fold`` reads each representative's Reidemeister number off the
table ``morphism._search`` is still filling, without building a Morphism.
Its counters are compared with the slow oracle ``oracles.tally``, which
counts the weighted sweep's Morphisms by every method of ``oracles.count``,
the orbit count among them; its budget charges with the weighted sweep's;
and its two assertions are shown to fire on bad tables.  Depth 0's
candidates and weights, read off the conjugacy classes, are compared with
an orbit pass over C_G(1) = G, and every centraliser the search builds is
shown to be a proper subgroup of the one it is taken in.
"""

import pytest

import oracles
import twistspec.morphism as morphism_mod
import twistspec.spectra as spectra_mod
from twistspec.catalog import (abelian, alternating, build, dihedral,
                               direct_product, holomorph_cyclic, m9, save,
                               shipped_catalog, symmetric)
from twistspec.cli import main
from twistspec.errors import BudgetExceeded
from twistspec.group import _Budget, orbits
from twistspec.morphism import DEFAULT_PRODUCT_BUDGET, Morphism, weighted_sweep
from twistspec.spectra import classify, extended_spectrum, spectrum

# Hol(Z21) and Z2^4 are not in the catalog: Hol(Z21) has a deep
# centraliser chain, Z2^4 has 65536 endomorphisms and a trivial Inn(G).
CASES = [*shipped_catalog(), alternating(6), symmetric(6),
         holomorph_cyclic(21), abelian(2, 2, 2, 2)]


@pytest.fixture(scope="module", params=CASES, ids=lambda defn: defn.name)
def case(request):
    group = build(request.param)
    return {"group": group,
            "end_sweep": list(weighted_sweep(group)),
            "aut_sweep": list(weighted_sweep(group, automorphisms=True))}


def _assert_fold_matches_oracle(group, end_sweep, aut_sweep, method):
    budget = DEFAULT_PRODUCT_BUDGET
    assert (spectra_mod._fold(group, False, _Budget(budget))
            == oracles.tally(end_sweep, method))
    # An Aut fold's callers read only its first counter.
    assert (spectra_mod._fold(group, True, _Budget(budget))[0]
            == oracles.tally(aut_sweep, method)[0])


@pytest.mark.parametrize("method", oracles.METHODS)
def test_fold_matches_the_morphism_oracle(case, method):
    _assert_fold_matches_oracle(case["group"], case["end_sweep"],
                                case["aut_sweep"], method)


def test_depth_zero_reads_the_conjugacy_classes(case, monkeypatch):
    """Depth 0's candidates and weights, read off the classes, against an
    orbit pass over C_G(1) = G, for both pools.  The search tries exactly
    those candidates at depth 0, and each centraliser it takes there has
    the candidate's weight as its index."""
    group = case["group"]
    gens = group.small_generating_set()
    maps = [group.conjugation(t) for t in group.centralizer(0).generators]
    class_of, reps, sizes = orbits(group.order, maps)
    levels, tried, indices = [], [], {}
    make_levels = morphism_mod._levels
    extend = morphism_mod._extend
    centralizer = type(group).centralizer
    at_root = [False]  # whether the last node was at depth 0

    def spied_extend(table, steps, images, injective):
        at_root[0] = steps is levels[-1][0]
        if at_root[0]:
            tried.append(images[0][0])  # column(c)[0] = c
        return extend(table, steps, images, injective)

    def spied_centralizer(self, y, within=None):
        # A centraliser is taken right after its candidate's node.
        found = centralizer(self, y, within)
        if at_root[0]:
            indices[y] = self.order // found.order
        return found

    monkeypatch.setattr(morphism_mod, "_levels", lambda *args:
                        levels.append(make_levels(*args)) or levels[-1])
    monkeypatch.setattr(morphism_mod, "_extend", spied_extend)
    monkeypatch.setattr(type(group), "centralizer", spied_centralizer)
    for automorphisms in (False, True):
        pool = (morphism_mod._pools(group, gens, automorphisms)[0]
                if gens else [0])
        slow = [(x, sizes[class_of[x]]) for x in pool
                if reps[class_of[x]] == x]
        classes = group.conjugacy_classes()
        assert [(x, classes.sizes[classes.class_of[x]]) for x in pool
                if classes.representatives[classes.class_of[x]] == x] == slow
        tried.clear()
        indices.clear()
        for _ in morphism_mod._search(group, automorphisms, _Budget(None),
                                      "the sweep"):
            pass
        if gens:
            assert tried == [x for x, _ in slow]
        assert indices.items() <= dict(slow).items()


@pytest.mark.parametrize("defn", [symmetric(4), symmetric(6),
                                  holomorph_cyclic(21),
                                  direct_product(dihedral(4), abelian(2, 2))],
                         ids=lambda defn: defn.name)
def test_centralisers_are_proper_and_come_after_the_first_node(defn,
                                                               monkeypatch):
    # A candidate whose orbit under S_j is a point hands S_j on: every
    # centraliser the search builds is a proper subgroup of the S_j it is
    # taken in, so none is of the identity or of a central element.  The
    # root reads the classes, so the first node comes before any orbit pass.
    group = build(defn)
    log = []
    extend = morphism_mod._extend
    centralizer = type(group).centralizer
    orbit_pass = morphism_mod.orbits

    def spied_centralizer(self, y, within=None):
        found = centralizer(self, y, within)
        log.append("centralizer")
        assert found.order < (self.order if within is None else within.order)
        return found

    monkeypatch.setattr(morphism_mod, "_extend", lambda *args:
                        log.append("extend") or extend(*args))
    monkeypatch.setattr(morphism_mod, "orbits", lambda *args:
                        log.append("orbits") or orbit_pass(*args))
    monkeypatch.setattr(type(group), "centralizer", spied_centralizer)
    for sweep in (extended_spectrum, spectrum):
        log.clear()
        sweep(group)
        assert log[0] == "extend"
        assert "centralizer" in log and "orbits" in log


def test_fold_matches_the_oracle_on_a_large_centre():
    """D8 x Z2 x Z2 (order 32, centre of order 8): most representatives
    weigh little, so this is nearly a full sweep of End(G)."""
    group = build(direct_product(dihedral(4), abelian(2, 2)))
    aut_sweep = list(weighted_sweep(group, automorphisms=True))
    _assert_fold_matches_oracle(group, list(weighted_sweep(group)), aut_sweep,
                                "orbits")


@pytest.fixture
def constructed(monkeypatch):
    """Counts the Morphism objects built while the fixture is active."""
    count = [0]
    init = Morphism.__init__

    def spied(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Morphism, "__init__", spied)
    return count


@pytest.mark.parametrize("defn", [abelian(2, 2, 2, 2), symmetric(6)],
                         ids=lambda defn: defn.name)
def test_default_method_builds_no_morphism(defn, constructed):
    group = build(defn)
    ext = extended_spectrum(group)
    spec = spectrum(group)
    report = classify(group, extended=True)
    assert constructed[0] == 0
    assert (report.extended_spectrum, report.spectrum) == (ext, spec)
    assert report.end_count == sum(ext.values())


@pytest.fixture
def charges(monkeypatch):
    """Every amount charged to a product budget, in order."""
    log = []
    charge = morphism_mod._Budget.charge

    def spied(self, amount):
        log.append(amount)
        charge(self, amount)

    monkeypatch.setattr(morphism_mod._Budget, "charge", spied)
    return log


def _charged(log, call):
    log.clear()
    try:
        call()
    except BudgetExceeded:
        return list(log), True
    return list(log), False


@pytest.mark.parametrize("automorphisms, budget, fold", [
    (False, 50, extended_spectrum),
    (True, 10, spectrum),
], ids=["extended_spectrum", "spectrum"])
def test_budget_runs_out_where_the_weighted_sweep_does(automorphisms, budget,
                                                       fold, charges):
    group = build(symmetric(4))
    sweep = _charged(charges, lambda: list(weighted_sweep(
        group, automorphisms=automorphisms, budget=budget)))
    assert sweep[1], "the budget must run out"
    assert _charged(charges, lambda: fold(group, budget=budget)) == sweep


@pytest.mark.parametrize("defn", [symmetric(4), symmetric(6),
                                  holomorph_cyclic(21)],
                         ids=lambda defn: defn.name)
def test_fold_charges_what_the_weighted_sweep_charges(defn, charges):
    """Same amounts in the same order.  The totals were measured when
    every sweep still built a Morphism per representative, less the orbit
    pass that depth 0 made before it read the conjugacy classes (|G| times
    the generators of C_G(1), 24 * 2, 720 * 2 and 252 * 3), less the End
    sweep's centralisers of candidates whose orbit is a point, |G| each,
    with the orbit pass over each, |G| times the generators of G:
    24 + 24 * 2, 720 + 720 * 2 and 2 * (252 + 252 * 3)."""
    group = build(defn)
    end, _ = _charged(charges, lambda: list(weighted_sweep(group)))
    aut, _ = _charged(charges, lambda: list(
        weighted_sweep(group, automorphisms=True)))
    assert _charged(charges, lambda: extended_spectrum(group)) == (end, False)
    assert _charged(charges, lambda: spectrum(group)) == (aut, False)
    # The End sweep gives classify both spectra.
    assert _charged(charges, lambda: classify(group)) == (end, False)
    assert _charged(charges, lambda: classify(group, extended=False)) == (
        aut, False)
    totals = {"S4": (1024, 166), "S6": (148854, 28772),
              "Hol(Z21)": (913962, 44037)}
    assert (sum(end), sum(aut)) == totals[group.name]


@pytest.mark.parametrize("automorphisms, budget, phase", [
    (False, 12000, "the End sweep"), (True, 5000, "the Aut sweep")],
    ids=["End", "Aut"])
def test_the_sweep_names_its_own_phase(automorphisms, budget, phase):
    """M9's scan charges 1512, its End sweep 11520 and its Aut sweep 7236,
    so each budget outlasts the scan and runs out in the sweep, whose phase
    the error names.  Each call builds M9 afresh, so each one scans."""
    fold = spectrum if automorphisms else extended_spectrum
    message = f"^product budget {budget} exceeded in {phase}$"
    with pytest.raises(BudgetExceeded, match=message):
        fold(build(m9()), budget=budget)
    with pytest.raises(BudgetExceeded, match=message):
        list(weighted_sweep(build(m9()), automorphisms=automorphisms,
                            budget=budget))


def _identity_moved(group):
    table = list(range(group.order))
    table[0] = 1
    return table, False


def _class_onto_identity(group):
    # The class of element 1 goes to the identity's class.
    table = list(range(group.order))
    table[1] = 0
    return table, True


def _trivial_as_automorphism(group):
    return [0] * group.order, True


@pytest.mark.parametrize("bad", [_identity_moved, _class_onto_identity,
                                 _trivial_as_automorphism],
                         ids=["identity-class-moved",
                              "class-onto-identity-as-automorphism",
                              "trivial-as-automorphism"])
def test_fold_assertions_fire(bad, tmp_path, monkeypatch, capsys):
    defn = symmetric(3)
    group = build(defn)
    table, bijective = bad(group)

    def search(group, automorphisms, tracker, phase=None):
        yield table, 1, bijective

    monkeypatch.setattr(spectra_mod, "_search", search)
    with pytest.raises(AssertionError):
        extended_spectrum(group)
    with pytest.raises(AssertionError):
        spectrum(group)
    path = tmp_path / "s3.json"
    save(defn, path)
    assert main(["spectrum", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Traceback" not in err
