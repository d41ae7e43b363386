"""Acceptance suite: one test per release criterion, exact assertions only.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with timings.  The heavy sweeps (full-catalog classification and
the order <= 24 endomorphism walk) are shared session fixtures.
"""

from __future__ import annotations

import json
import time

import pytest

import oracles
from twistspec.catalog import write_catalog
from twistspec.cli import main
from twistspec.spectra import classify
from twistspec.twisted import (reduction_check, reidemeister_number,
                               twisted_classes)


def _report(criterion: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} ({time.monotonic() - t0:.1f}s) "
          f"{detail}")


@pytest.fixture(scope="module")
def full_reports(catalog_groups):
    """classify() over the whole shipped catalog, extended sweeps included."""
    return {
        name: classify(group, extended=True, battery=False)
        for name, group in catalog_groups.items()
    }


def test_criterion_1_full_extended_spectrum_table(full_reports):
    t0 = time.monotonic()
    flagged = sorted(
        (name, report.class_number)
        for name, report in full_reports.items()
        if report.flags["full_extended_spectrum"]
    )
    expected = [("A4", 4), ("M9", 6), ("S3", 3), ("Z1", 1), ("Z2", 2)]
    ok = flagged == expected
    _report("1", ok, f"full-extended flags over {len(full_reports)} groups: "
                     f"{flagged}", t0)
    assert ok


TRIVIAL_SPECTRUM_ROWS = [
    ("S3", 3), ("Hol(Z5)", 5), ("S4", 5), ("Hol(Z7)", 7), ("Hol(Z9)", 10),
    ("Hol(Z11)", 11), ("S5", 7), ("Hol(Z15)", 15),
]


def test_criterion_2_trivial_spectrum_small_order_rows(full_reports):
    t0 = time.monotonic()
    failures = []
    for name, k in TRIVIAL_SPECTRUM_ROWS:
        report = full_reports[name]
        if set(report.spectrum) != {k} or report.out_order != 1 \
                or report.class_number != k:
            failures.append((name, dict(report.spectrum), report.out_order))
    ok = not failures
    _report("2", ok, f"{len(TRIVIAL_SPECTRUM_ROWS)} rows, spectrum {{k}} and "
                     f"trivial outer group each; failures={failures}", t0)
    assert ok


def test_criterion_3_cross_method_oracle(small_groups, endos_of):
    t0 = time.monotonic()
    checked = 0
    for name, group in small_groups.items():
        for phi in endos_of(name):
            partition = twisted_classes(phi)
            assert partition.count == reidemeister_number(phi), name
            assert (partition.identity_class_size()
                    * phi.fixed_point_count() == group.order), name
            checked += 1
    ok = checked > 1000
    _report("3", ok, f"orbit and fixed-class counts agree on {checked} "
                     f"endomorphisms across {len(small_groups)} groups of "
                     f"order <= 24", t0)
    assert ok


def test_criterion_4_reduction_identity(small_groups, endos_of):
    t0 = time.monotonic()
    checked = 0
    for name in small_groups:
        for phi in endos_of(name):
            count = reidemeister_number(phi)
            assert reduction_check(phi, count), name
            assert oracles.reduced_count(phi) == count, name
            checked += 1
    _report("4", True, f"reduction to the injective quotient preserves the "
                       f"count for {checked} endomorphisms", t0)


ODD_ORDER_NAMES = ("Z9", "Z27", "Z3xZ3", "Z5xZ5", "F21")


def test_criterion_5_odd_order_parity(catalog_groups, endos_of):
    t0 = time.monotonic()
    checked = 0
    for name in ODD_ORDER_NAMES:
        group = catalog_groups[name]
        assert group.order % 2 == 1
        for phi in endos_of(name):
            r = reidemeister_number(phi)
            assert r == twisted_classes(phi).count, name
            assert r % 2 == 1, (name, r)
            checked += 1
    _report("5", True, f"all {checked} endomorphism counts odd across "
                       f"{ODD_ORDER_NAMES}", t0)


NILPOTENT_OR_QUASISIMPLE = ("Q8", "D4", "Z2xZ2xZ2", "Z8", "SL(2,5)")


def test_criterion_6_exclusion_theorems(full_reports):
    t0 = time.monotonic()
    for name, report in full_reports.items():
        assert report.class_number - 1 not in report.spectrum, name
    for name in NILPOTENT_OR_QUASISIMPLE:
        report = full_reports[name]
        assert report.extended_spectrum is not None
        assert report.class_number - 1 not in report.extended_spectrum, name
    _report("6", True, f"k-1 missing from every spectrum "
                       f"({len(full_reports)} groups) and from the extended "
                       f"spectrum of {NILPOTENT_OR_QUASISIMPLE}", t0)


def test_criterion_7_prime_cyclic_extended_spectra(full_reports):
    t0 = time.monotonic()
    failures = []
    for p in (3, 5, 7, 11, 13):
        report = full_reports[f"Z{p}"]
        if set(report.extended_spectrum) != {1, p}:
            failures.append((p, sorted(report.extended_spectrum)))
    ok = not failures
    _report("7", ok, f"extended spectrum {{1, p}} for p in 3,5,7,11,13; "
                     f"failures={failures}", t0)
    assert ok


def test_criterion_8_quasisimple_dichotomy(catalog_groups, endos_of):
    t0 = time.monotonic()
    sl25 = catalog_groups["SL(2,5)"]
    assert sl25.is_quasisimple()
    assert not catalog_groups["SL(2,3)"].is_quasisimple()
    endos = endos_of("SL(2,5)")
    for phi in endos:
        assert phi.is_trivial() or phi.is_automorphism()
    _report("8", True, f"all {len(endos)} endomorphisms of SL(2,5) trivial "
                       f"or bijective; quasisimple flags exact", t0)


def test_criterion_9_survey_jobs_determinism(tmp_path):
    t0 = time.monotonic()
    catalog_dir = tmp_path / "catalog"
    write_catalog(catalog_dir)
    out1 = tmp_path / "survey-jobs1.json"
    out4 = tmp_path / "survey-jobs4.json"
    assert main(["survey", str(catalog_dir), "--out", str(out1),
                 "--jobs", "1"]) == 0
    assert main(["survey", str(catalog_dir), "--out", str(out4),
                 "--jobs", "4"]) == 0
    identical = out1.read_bytes() == out4.read_bytes()
    doc = json.loads(out1.read_text())
    _report("9", identical, f"survey of {doc['group_count']} groups is "
                            f"byte-identical for --jobs 1 and --jobs 4", t0)
    assert identical
    assert doc["summary"]["errors"] == []
