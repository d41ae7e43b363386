"""A7 and the Mathieu group M11, checked against classical facts rather than
recorded outputs.

A7 has k = 9 classes and Aut(A7) = S7.  The outer automorphisms, conjugation
by an odd permutation, swap the two classes of 7-cycles and fix the other
seven, so the spectrum is {7, 9}, each value taken by half of S7.

M11 on 11 points, from (1 2 ... 11) and (3 7 11 8)(4 10 5 6), has order
7920 and k = 10.  Out(M11) = 1, so every automorphism is inner and fixes
every class: the spectrum is {10} with multiplicity 7920.  M11 is simple,
so its endomorphisms are the automorphisms and the trivial map, whose count
is 1.

SL(3,3) = PSL(3,3), since GF(3) has no nontrivial cube root of unity, acts
faithfully on the 13 points of PG(2,3) and is generated by the elementary
matrix [[1,1,0],[0,1,0],[0,0,1]] and the cyclic permutation matrix.  It is
simple of order 5616 with k = 12, and Aut(PSL(3,3)) = PSL(3,3) extended by
the inverse-transpose, of order 11232.  Its spectrum, as computed, is {6,
12}, each value taken by half of Aut.  None of the three groups is in
``shipped_catalog()``.
"""

from itertools import product

import oracles
from twistspec.catalog import (GroupDefinition, alternating, build,
                               shipped_catalog)
from twistspec.perm import Permutation
from twistspec.spectra import classify, spectrum, structure_flags


def m11():
    long_cycle = Permutation.from_cycles(11, range(1, 12))
    other = Permutation.from_cycles(11, (3, 7, 11, 8), (4, 10, 5, 6))
    return GroupDefinition(
        "M11", 11, [long_cycle.to_one_based(), other.to_one_based()],
        {"order": 7920, "class_number": 10})


def psl33():
    """SL(3,3) acting on the points of PG(2,3), each point the nonzero
    vector of GF(3)^3 whose first nonzero coordinate is 1."""
    points = [v for v in product(range(3), repeat=3)
              if any(v) and v[next(i for i, c in enumerate(v) if c)] == 1]

    def action(matrix):
        images = []
        for v in points:
            w = [sum(a * b for a, b in zip(row, v)) % 3 for row in matrix]
            lead = next(c for c in w if c)  # 1 or 2 = -1, its own inverse
            images.append(points.index(tuple(c * lead % 3 for c in w)) + 1)
        return images

    transvection = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    return GroupDefinition("PSL(3,3)", len(points),
                           [action(transvection), action(cycle)],
                           {"order": 5616, "class_number": 12})


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


def test_psl33_spectrum():
    # The structure flags agree with the normal closures alone, which run
    # here on a group of order 5616.
    group = build(psl33())
    assert (group.order, group.class_number()) == (5616, 12)
    flags = structure_flags(group)
    assert flags["simple"] and flags["quasisimple"]
    assert flags == oracles.structure_flags_by_closures(group)
    spec = spectrum(group)
    assert sum(spec.values()) == 11232
    assert spec == {6: 5616, 12: 5616}


def test_rungs_are_not_shipped():
    names = {d.name for d in shipped_catalog()}
    assert not names & {"A7", "M11", "PSL(3,3)"}
