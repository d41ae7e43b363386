"""A7 and the Mathieu group M11, checked against classical facts rather than
recorded outputs.

A7 has k = 9 classes and Aut(A7) = S7.  The outer automorphisms, conjugation
by an odd permutation, swap the two classes of 7-cycles and fix the other
seven, so the spectrum is {7, 9}, each value taken by half of S7.

M11 on 11 points, from (1 2 ... 11) and (3 7 11 8)(4 10 5 6), has order
7920 and k = 10.  Out(M11) = 1, so every automorphism is inner and fixes
every class: the spectrum is {10} with multiplicity 7920.  M11 is simple,
so its endomorphisms are the automorphisms and the trivial map, whose count
is 1.  Neither group is in ``shipped_catalog()``.
"""

from twistspec.catalog import (GroupDefinition, alternating, build,
                               shipped_catalog)
from twistspec.perm import Permutation
from twistspec.spectra import classify, spectrum


def m11():
    long_cycle = Permutation.from_cycles(11, range(1, 12))
    other = Permutation.from_cycles(11, (3, 7, 11, 8), (4, 10, 5, 6))
    return GroupDefinition(
        "M11", 11, [long_cycle.to_one_based(), other.to_one_based()],
        {"order": 7920, "class_number": 10})


def test_a7_spectrum():
    group = build(alternating(7))
    assert (group.order, group.class_number()) == (2520, 9)
    assert spectrum(group) == {7: 2520, 9: 2520}


def test_m11_spectra():
    report = classify(build(m11()))
    assert (report.order, report.class_number) == (7920, 10)
    assert report.flags["simple"]
    assert report.spectrum == {10: 7920}
    assert report.out_order == 1
    assert report.flags["trivial_spectrum"]
    assert report.extended_spectrum == {1: 1, 10: 7920}


def test_rungs_are_not_shipped():
    names = {d.name for d in shipped_catalog()}
    assert not names & {"A7", "M11"}
