import json

import pytest

import oracles
import twistspec.spectra as spectra_mod
import twistspec.twisted as twisted_mod
from twistspec.cli import main
from twistspec.errors import BudgetExceeded
from twistspec.morphism import inner_automorphism, weighted_sweep
from twistspec.spectra import (_witness, classify, extended_spectrum,
                               spectrum, theorem_battery)
from twistspec.group import FiniteGroup
from twistspec.twisted import reduction_check, reidemeister_number
from twistspec.catalog import (abelian, alternating, build, cyclic,
                               holomorph_cyclic, m9, save, shipped_catalog,
                               sl2, symmetric)


def test_spectrum_examples():
    assert spectrum(build(symmetric(4))) == {5: 24}
    assert spectrum(build(cyclic(2))) == {2: 1}
    # the six automorphisms of Z2xZ2: identity, three transvection-like,
    # two cycling the involutions
    assert spectrum(build(abelian(2, 2))) == {1: 2, 2: 3, 4: 1}


def test_spectrum_methods_agree_on_small_catalog(small_groups):
    # The fold's fixed-class count against the orbit count, one
    # automorphism at a time.
    for name, group in small_groups.items():
        autos = [(phi, 1) for phi in oracles.morphisms(group, True)]
        orbit_spec, _ = oracles.tally(autos, "orbits")
        assert spectrum(group) == orbit_spec, name


def test_extended_spectrum_examples():
    assert set(extended_spectrum(build(alternating(4)))) == {1, 2, 3, 4}
    assert set(extended_spectrum(build(cyclic(5)))) == {1, 5}
    assert set(extended_spectrum(build(symmetric(3)))) == {1, 2, 3}


def test_classify_holomorph_z5():
    report = classify(build(holomorph_cyclic(5)))
    assert report.flags["trivial_spectrum"] is True
    assert report.class_number == 5
    assert report.out_order == 1


def test_classify_m9():
    report = classify(build(m9()))
    assert report.flags["full_extended_spectrum"] is True
    assert report.class_number == 6


def test_classify_z6_not_trivial_spectrum():
    report = classify(build(cyclic(6)))
    assert report.flags["trivial_spectrum"] is False
    assert 2 in report.spectrum  # inversion


def test_classify_flag_profile():
    report = classify(build(sl2(5)))
    assert report.flags["quasisimple"] is True
    assert report.flags["perfect"] is True
    assert report.flags["simple"] is False
    assert report.flags["nilpotent"] is False
    report = classify(build(alternating(5)))
    assert report.flags["simple"] is True
    assert report.flags["quasisimple"] is True
    assert report.flags["trivial_extended_spectrum"] is False


def test_trivial_group_report():
    report = classify(build(cyclic(1)))
    assert report.spectrum == {1: 1}
    assert report.extended_spectrum == {1: 1}
    assert report.flags["trivial_spectrum"] is True
    assert report.flags["trivial_extended_spectrum"] is True
    assert report.flags["full_extended_spectrum"] is True
    assert report.out_order == 1


def test_spectrum_contains_class_number(catalog_groups):
    for name, group in catalog_groups.items():
        report = classify(group)
        k = report.class_number
        assert k in report.spectrum
        assert 1 in report.extended_spectrum
        assert set(report.spectrum) <= set(report.extended_spectrum)
        assert set(report.extended_spectrum) <= set(range(1, k + 1))
        assert (k - 1) not in report.spectrum


def test_multiplicity_of_k_is_class_preserving_count(small_groups, endos_of):
    for name, group in small_groups.items():
        report = classify(group)
        k = report.class_number
        assert (report.spectrum.get(k, 0)
                == report.class_preserving_aut_count), name


def test_multiplicity_of_one_counts_fixed_point_free(small_groups, endos_of):
    for name, group in small_groups.items():
        report = classify(group)
        fpf = sum(1 for phi in endos_of(name)
                  if phi.fixed_point_count() == 1)
        assert report.extended_spectrum.get(1, 0) == fpf, name


def test_exclusion_for_odd_nilpotent_quasisimple(catalog_groups):
    for name, group in catalog_groups.items():
        if group.order <= 2:
            continue
        if not (group.order % 2 == 1 or group.is_nilpotent()
                or group.is_quasisimple()):
            continue
        report = classify(group)
        assert report.flags["full_extended_spectrum"] is False, name


def test_class_preserving_equals_inner_for_simple_quotients(catalog_groups):
    # spot checks of trivial outer class-preserving quotient on simple groups,
    # once directly and once through a central quotient
    a5 = catalog_groups["A5"]
    report = classify(a5)
    assert report.class_preserving_aut_count == a5.order  # Inn(A5) = A5
    assert report.class_preserving_out_order == 1
    sl25 = catalog_groups["SL(2,5)"]
    quotient_group, _ = oracles.quotient(sl25, sl25.center())
    assert quotient_group.order == 60
    quotient_group.name = "SL(2,5)/Z"
    qreport = classify(quotient_group)
    assert qreport.class_preserving_aut_count == 60
    assert qreport.class_preserving_out_order == 1


def test_class_preserving_count_is_multiple_of_inner(catalog_groups):
    for name, group in catalog_groups.items():
        report = classify(group, extended=False)
        inner = group.order // group.center().order
        assert report.class_preserving_aut_count % inner == 0, name
        assert report.aut_count // report.out_order == inner, name


def test_skipped_extended_fields_are_annotated():
    group = build(symmetric(4))
    # budget large enough for the automorphism search but not the
    # endomorphism search (about 170 and 1130 with Inn-orbit sweeps)
    report = classify(group, budget=500)
    assert report.extended_spectrum is None
    assert report.end_count is None
    assert report.flags["full_extended_spectrum"] is None
    assert any("skipped" in note for note in report.annotations)
    assert report.spectrum == {5: 24}


def test_classify_propagates_budget_error_for_automorphisms():
    group = build(symmetric(4))
    with pytest.raises(BudgetExceeded):
        classify(group, budget=10)


def test_report_json_shape():
    report = classify(build(symmetric(3)), battery=True)
    doc = report.to_json_dict()
    assert doc["name"] == "S3"
    assert doc["spectrum"] == [[3, 6]]
    assert doc["extended_spectrum"] == [[1, 1], [2, 3], [3, 6]]
    assert list(doc["flags"]) == [
        "abelian", "nilpotent", "perfect", "simple", "quasisimple",
        "odd_order", "trivial_spectrum", "trivial_extended_spectrum",
        "full_extended_spectrum",
    ]
    assert all(chk["passed"] for chk in doc["theorem_battery"])


# -- theorem battery ---------------------------------------------------------------

def battery_map(group):
    return {chk.name: chk for chk in theorem_battery(group)}


def test_battery_q8_excludes_k_minus_1(catalog_groups):
    checks = battery_map(catalog_groups["Q8"])
    assert checks["extended-excludes-k-minus-1"].passed
    report = classify(catalog_groups["Q8"])
    assert report.class_number == 5
    assert 4 not in report.extended_spectrum


def test_battery_odd_parity(endos_of, catalog_groups):
    checks = battery_map(catalog_groups["F21"])
    assert checks["odd-order-parity"].passed
    values = {reidemeister_number(phi) for phi in endos_of("F21")}
    assert all(v % 2 == 1 for v in values)


def test_battery_quasisimple_dichotomy(catalog_groups):
    checks = battery_map(catalog_groups["SL(2,5)"])
    assert checks["quasisimple-dichotomy"].passed


def test_battery_trivial_group_vacuous(catalog_groups):
    checks = battery_map(catalog_groups["Z1"])
    assert all(chk.passed for chk in checks.values())


def test_battery_applicability(catalog_groups):
    checks = battery_map(catalog_groups["S3"])
    assert "odd-order-parity" not in checks        # even order
    assert "extended-excludes-k-minus-1" not in checks
    assert "quasisimple-dichotomy" not in checks
    checks = battery_map(catalog_groups["Z27"])
    assert "odd-order-parity" in checks
    assert "extended-excludes-k-minus-1" in checks  # nilpotent


def test_battery_all_pass_across_catalog(catalog_groups):
    for name, group in catalog_groups.items():
        if group.order > 24:
            continue
        for chk in theorem_battery(group):
            assert chk.passed, (name, chk.name, chk.witness)


# The checks that apply to every group, so ``verify`` always prints a line.
UNCONDITIONAL_CHECKS = {"orbit-vs-fixed-classes", "orbit-stabiliser-identity",
                        "reduction-to-injective", "spectrum-excludes-k-minus-1"}


def test_battery_always_has_the_unconditional_checks(catalog_groups):
    for name, group in catalog_groups.items():
        names = {chk.name for chk in theorem_battery(group)}
        assert UNCONDITIONAL_CHECKS <= names, name


def test_battery_inner_invariance_check_can_fail(tmp_path, monkeypatch,
                                                 capsys):
    """A count that is wrong only off the representatives, on some
    tau_s . phi, fails ``orbit-vs-fixed-classes`` with phi as witness."""
    group = build(symmetric(3))
    sweep = list(weighted_sweep(group))
    representatives = {phi.generator_images for phi, _ in sweep}
    honest = spectra_mod.orbits

    def corrupted(size, maps):
        # An extra representative adds one to the count and leaves the
        # identity's class alone.
        partition = honest(size, maps)
        if oracles.twisted_map_images(group, maps) in representatives:
            return partition
        return partition._replace(
            representatives=(*partition.representatives, 0))

    monkeypatch.setattr(spectra_mod, "orbits", corrupted)
    # The first representative of weight > 1 in sweep order; its orbit is
    # not a point, so some declared generator moves it.
    first = next(phi for phi, weight in sweep if weight > 1)
    checks = battery_map(group)
    failed = [name for name, chk in checks.items() if not chk.passed]
    assert failed == ["orbit-vs-fixed-classes"]
    witness = checks["orbit-vs-fixed-classes"].witness
    expected = _witness(group, first.generator_images, "")
    assert (witness["generator_images"], witness["generator_cycles"]) == (
        expected["generator_images"], expected["generator_cycles"])
    path = tmp_path / "s3.json"
    save(symmetric(3), path)
    assert main(["verify", str(path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL  S3  orbit-vs-fixed-classes  witness=" in out


def test_battery_orbit_stabiliser_check_can_fail(tmp_path, monkeypatch,
                                                 capsys):
    """A fixed-point count that is wrong for the trivial map fails
    ``orbit-stabiliser-identity`` alone, with that map as witness; no
    internal assertion fires first."""
    group = build(symmetric(3))
    honest = spectra_mod._fixed_points
    monkeypatch.setattr(spectra_mod, "_fixed_points",
                        lambda table: honest(table) + (0 if any(table) else 1))
    first = next(phi for phi, _ in weighted_sweep(group) if phi.is_trivial())
    checks = battery_map(group)
    failed = [name for name, chk in checks.items() if not chk.passed]
    assert failed == ["orbit-stabiliser-identity"]
    witness = checks["orbit-stabiliser-identity"].witness
    expected = _witness(group, first.generator_images, "")
    assert (witness["generator_images"], witness["generator_cycles"]) == (
        expected["generator_images"], expected["generator_cycles"])
    path = tmp_path / "s3.json"
    save(symmetric(3), path)
    assert main(["verify", str(path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL  S3  orbit-stabiliser-identity  witness=" in out


def test_battery_reduction_check_can_fail(tmp_path, monkeypatch, capsys):
    """The labels of the classes of G/N outside N shifted by one, modulo
    the class count, fail ``reduction-to-injective`` and no other check,
    on the 36 catalog groups with a non-injective map onto a nontrivial
    G/N, with the first representative in sweep order whose count on G/N
    moved as witness: the check reads the classes of G/N, not phi's own
    twisted classes.  N keeps label 0, since phi(1) = 1 must stay in the
    identity's class (``twisted._class_images`` asserts it)."""
    honest = FiniteGroup.quotient_classes

    def shifted(self, members):
        sub, classes = honest(self, members)
        return sub, classes._replace(class_of=tuple(
            c and (c + 1) % classes.count for c in classes.class_of))

    monkeypatch.setattr(FiniteGroup, "quotient_classes", shifted)
    failing = 0
    for defn in shipped_catalog():
        group = build(defn)
        checks = battery_map(group)
        failed = [name for name, chk in checks.items() if not chk.passed]
        first = next((phi for phi, _ in weighted_sweep(group)
                      if not reduction_check(phi, reidemeister_number(phi))),
                     None)
        if first is None:
            assert failed == [], defn.name
            continue
        failing += 1
        assert failed == ["reduction-to-injective"], defn.name
        witness = checks["reduction-to-injective"].witness
        expected = _witness(group, first.generator_images, "")
        assert (witness["generator_images"], witness["generator_cycles"]) == (
            expected["generator_images"], expected["generator_cycles"])
    assert failing == 36
    path = tmp_path / "s3.json"
    save(symmetric(3), path)
    assert main(["verify", str(path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL  S3  reduction-to-injective  witness=" in out
    assert out.count("FAIL") == 1


def _shift_counts(monkeypatch, group, chosen, delta):
    """Move R by ``delta`` for the endomorphisms whose generator images
    ``chosen`` picks, in both of its counts, ``orbits`` and
    ``_fixed_count``, and on G/N as on G, so that the two counts and the
    reduction still agree and only the checks that read R's value fail."""
    gens = group.generator_indices()
    honest_orbits, honest_fixed = spectra_mod.orbits, twisted_mod._fixed_count

    def orbits(size, maps):
        # Representatives added or dropped at the end move the count and
        # leave the identity's class alone.
        partition = honest_orbits(size, maps)
        if not chosen(oracles.twisted_map_images(group, maps)):
            return partition
        reps = partition.representatives
        return partition._replace(representatives=(
            (*reps, *[0] * delta) if delta > 0 else reps[:delta]))

    def fixed_count(table, classes, bijective):
        count = honest_fixed(table, classes, bijective)
        return count + delta if chosen(tuple(table[s] for s in gens)) else count

    monkeypatch.setattr(spectra_mod, "orbits", orbits)
    monkeypatch.setattr(spectra_mod, "_fixed_count", fixed_count)
    monkeypatch.setattr(twisted_mod, "_fixed_count", fixed_count)


def _assert_fails_alone(defn, name, chosen, tmp_path, capsys):
    """``name`` is the one failing check of ``defn``'s battery, its witness
    is the first representative in sweep order that ``chosen`` picks, and
    ``verify`` exits 3 with its FAIL line."""
    group = build(defn)
    first = next(phi for phi, _ in weighted_sweep(group)
                 if chosen(phi.generator_images))
    checks = battery_map(group)
    failed = [check for check, result in checks.items() if not result.passed]
    assert failed == [name]
    witness = checks[name].witness
    expected = _witness(group, first.generator_images, "")
    assert (witness["generator_images"], witness["generator_cycles"]) == (
        expected["generator_images"], expected["generator_cycles"])
    path = tmp_path / "group.json"
    save(defn, path)
    assert main(["verify", str(path)]) == 3
    out = capsys.readouterr().out
    assert f"FAIL  {defn.name}  {name}  witness=" in out
    assert out.count("FAIL") == 1


def _catalog_definition(name):
    return next(defn for defn in shipped_catalog() if defn.name == name)


def _inner_images(group):
    """The generator images of the inner automorphisms, one Inn(G)-orbit
    of the sweep."""
    return {inner_automorphism(group, h).generator_images
            for h in range(group.order)}


def test_battery_odd_order_parity_check_can_fail(tmp_path, monkeypatch,
                                                 capsys):
    """The inner automorphisms of F21 (k = 5) counted 6 by both methods
    fail ``odd-order-parity`` alone: 6 is not k - 1, R stays constant on
    their Inn(G)-orbit, and an automorphism builds no tower."""
    defn = _catalog_definition("F21")
    group = build(defn)
    inner = _inner_images(group)
    _shift_counts(monkeypatch, group, inner.__contains__, 1)
    _assert_fails_alone(defn, "odd-order-parity", inner.__contains__,
                        tmp_path, capsys)


def test_battery_spectrum_excludes_k_minus_1_check_can_fail(
        tmp_path, monkeypatch, capsys):
    """The inner automorphisms of S3 counted k - 1 = 2 by both methods fail
    ``spectrum-excludes-k-minus-1`` alone; S3 reports neither the extended
    check nor parity."""
    defn = symmetric(3)
    group = build(defn)
    inner = _inner_images(group)
    _shift_counts(monkeypatch, group, inner.__contains__, -1)
    _assert_fails_alone(defn, "spectrum-excludes-k-minus-1",
                        inner.__contains__, tmp_path, capsys)


def test_battery_extended_excludes_k_minus_1_check_can_fail(
        tmp_path, monkeypatch, capsys):
    """The trivial map of Q8 (k = 5) counted k - 1 = 4 by both methods,
    on G/G too, fails ``extended-excludes-k-minus-1`` alone: it is not an
    automorphism, so the spectrum's check does not see it."""
    defn = _catalog_definition("Q8")
    group = build(defn)

    def trivial(images):
        return not any(images)

    _shift_counts(monkeypatch, group, trivial, 3)
    _assert_fails_alone(defn, "extended-excludes-k-minus-1", trivial,
                        tmp_path, capsys)


def test_battery_quasisimple_dichotomy_check_can_fail(tmp_path, monkeypatch,
                                                      capsys):
    """A search that flags no map of A5 as bijective fails
    ``quasisimple-dichotomy`` alone, with the first nontrivial
    representative as witness: each such map still counts R on G/1 as on
    G, and none of its counts is k - 1 = 4."""
    honest = spectra_mod._search

    def search(*args):
        for table, weight, _ in honest(*args):
            yield table, weight, False

    monkeypatch.setattr(spectra_mod, "_search", search)
    _assert_fails_alone(alternating(5), "quasisimple-dichotomy", any,
                        tmp_path, capsys)


def test_all_pass_catalog_battery_builds_no_witness(catalog_groups,
                                                    monkeypatch):
    """A check that passes, or is not reported for the group, builds no
    witness over the whole catalog."""
    calls = []
    honest = spectra_mod._witness

    def witness(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(spectra_mod, "_witness", witness)
    for name, group in catalog_groups.items():
        assert all(chk.passed for chk in theorem_battery(group)), name
    assert calls == []


def test_survey_battery_budget_error_is_recorded(tmp_path):
    """A budget that covers Aut(S4) but not End(S4): with the battery the
    End sweep is mandatory, so S4 is recorded as a budget error."""
    directory = tmp_path / "groups"
    directory.mkdir()
    for defn in (symmetric(3), symmetric(4)):
        save(defn, directory / f"{defn.name.lower()}.json")
    out = tmp_path / "r.json"
    assert main(["survey", str(directory), "--out", str(out), "--battery",
                 "--budget", "500"]) == 0
    doc = json.loads(out.read_text())
    assert [g["name"] for g in doc["groups"]] == ["S3"]
    assert doc["summary"]["errors"] == [
        {"file": "s4.json",
         "error": "BudgetExceeded: product budget 500 exceeded in the "
                  "battery"}]


def test_spectrum_multiset_stable_under_enumeration_order(catalog_groups):
    group = catalog_groups["D4"]
    values = sorted(
        reidemeister_number(phi)
        for phi in oracles.morphisms(group, automorphisms=True)
    )
    report = classify(group)
    flattened = sorted(
        v for v, mult in report.spectrum.items() for _ in range(mult)
    )
    assert values == flattened
