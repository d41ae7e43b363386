import pytest

from twistspec.errors import BudgetExceeded
from twistspec.morphism import enumerate_automorphisms
from twistspec.spectra import (classify, extended_spectrum, spectrum,
                               theorem_battery)
from twistspec.twisted import reidemeister_number
from twistspec.catalog import (abelian, alternating, build, cyclic,
                               holomorph_cyclic, m9, sl2, symmetric)


def test_spectrum_examples():
    assert spectrum(build(symmetric(4))) == {5: 24}
    assert spectrum(build(cyclic(2))) == {2: 1}
    # the six automorphisms of Z2xZ2: identity, three transvection-like,
    # two cycling the involutions
    assert spectrum(build(abelian(2, 2))) == {1: 2, 2: 3, 4: 1}


def test_spectrum_methods_agree_on_small_catalog(small_groups):
    for name, group in small_groups.items():
        assert (spectrum(group, method="orbits")
                == spectrum(group, method="fixed-classes")), name


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
        report = classify(group, name=name)
        k = report.class_number
        assert k in report.spectrum
        assert 1 in report.extended_spectrum
        assert set(report.spectrum) <= set(report.extended_spectrum)
        assert set(report.extended_spectrum) <= set(range(1, k + 1))
        assert (k - 1) not in report.spectrum


def test_multiplicity_of_k_is_class_preserving_count(small_groups, endos_of):
    for name, group in small_groups.items():
        report = classify(group, name=name)
        k = report.class_number
        assert (report.spectrum.get(k, 0)
                == report.class_preserving_aut_count), name


def test_multiplicity_of_one_counts_fixed_point_free(small_groups, endos_of):
    for name, group in small_groups.items():
        report = classify(group, name=name)
        fpf = sum(1 for phi in endos_of(name) if phi.is_fixed_point_free())
        assert report.extended_spectrum.get(1, 0) == fpf, name


def test_exclusion_for_odd_nilpotent_quasisimple(catalog_groups):
    for name, group in catalog_groups.items():
        if group.order <= 2:
            continue
        if not (group.order % 2 == 1 or group.is_nilpotent()
                or group.is_quasisimple()):
            continue
        report = classify(group, name=name)
        assert report.flags["full_extended_spectrum"] is False, name


def test_class_preserving_equals_inner_for_simple_quotients(catalog_groups):
    # spot checks of trivial outer class-preserving quotient on simple groups,
    # once directly and once through a central quotient
    a5 = catalog_groups["A5"]
    report = classify(a5)
    assert report.class_preserving_aut_count == a5.order  # Inn(A5) = A5
    assert report.class_preserving_out_order == 1
    sl25 = catalog_groups["SL(2,5)"]
    quotient_group, _ = sl25.quotient(sl25.center())
    assert quotient_group.order == 60
    qreport = classify(quotient_group, name="SL(2,5)/Z")
    assert qreport.class_preserving_aut_count == 60
    assert qreport.class_preserving_out_order == 1


def test_class_preserving_count_is_multiple_of_inner(catalog_groups):
    for name, group in catalog_groups.items():
        report = classify(group, name=name, extended=False)
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

def battery_map(group, endos=None):
    return {chk.name: chk for chk in theorem_battery(group, _endos=endos)}


def test_battery_q8_excludes_k_minus_1(endos_of, catalog_groups):
    checks = battery_map(catalog_groups["Q8"], endos_of("Q8"))
    assert checks["extended-excludes-k-minus-1"].passed
    report = classify(catalog_groups["Q8"])
    assert report.class_number == 5
    assert 4 not in report.extended_spectrum


def test_battery_odd_parity(endos_of, catalog_groups):
    checks = battery_map(catalog_groups["F21"], endos_of("F21"))
    assert checks["odd-order-parity"].passed
    values = {reidemeister_number(phi) for phi in endos_of("F21")}
    assert all(v % 2 == 1 for v in values)


def test_battery_quasisimple_dichotomy(endos_of, catalog_groups):
    checks = battery_map(catalog_groups["SL(2,5)"], endos_of("SL(2,5)"))
    assert checks["quasisimple-dichotomy"].passed


def test_battery_trivial_group_vacuous(catalog_groups):
    checks = battery_map(catalog_groups["Z1"])
    assert all(chk.passed for chk in checks.values())


def test_battery_applicability(catalog_groups, endos_of):
    checks = battery_map(catalog_groups["S3"], endos_of("S3"))
    assert "odd-order-parity" not in checks        # even order
    assert "extended-excludes-k-minus-1" not in checks
    assert "quasisimple-dichotomy" not in checks
    checks = battery_map(catalog_groups["Z27"], endos_of("Z27"))
    assert "odd-order-parity" in checks
    assert "extended-excludes-k-minus-1" in checks  # nilpotent


def test_battery_all_pass_across_catalog(catalog_groups, endos_of):
    for name, group in catalog_groups.items():
        if group.order > 24:
            continue
        for chk in theorem_battery(group, _endos=endos_of(name)):
            assert chk.passed, (name, chk.name, chk.witness)


def test_spectrum_multiset_stable_under_enumeration_order(catalog_groups):
    group = catalog_groups["D4"]
    values = sorted(
        reidemeister_number(phi) for phi in enumerate_automorphisms(group)
    )
    report = classify(group)
    flattened = sorted(
        v for v, mult in report.spectrum.items() for _ in range(mult)
    )
    assert values == flattened
