"""The generator-action algorithms of the group layer against the quadratic
definitions in ``oracles.py``, on every catalog group (all of them small
enough for a Cayley table) and on A5 and S5 built without one."""

import pytest

import oracles
from twistspec.catalog import (alternating, build, dihedral,
                               shipped_catalog, symmetric)
from twistspec.perm import Permutation

CASES = [(defn, None) for defn in shipped_catalog()] + [
    (defn, 2) for defn in (alternating(5), symmetric(5))
]


def _case_id(case):
    defn, limit = case
    return defn.name + ("-no-table" if limit else "")


@pytest.fixture(scope="module", params=CASES, ids=_case_id)
def case(request):
    defn, limit = request.param
    group = build(defn) if limit is None else build(defn, cayley_limit=limit)
    return group, oracles.product_table(group)


def test_products_and_table(case):
    group, table = case
    assert [[group.product(i, j) for j in range(group.order)]
            for i in range(group.order)] == table
    got = group.cayley_table()
    assert got is None if group.order > group._cayley_limit else got == table


def test_conjugacy_classes(case):
    group, table = case
    partition = group.conjugacy_classes()
    assert (list(partition.class_of), list(partition.representatives),
            list(partition.sizes)) == oracles.conjugacy_classes(table)


def test_center_and_derived_subgroup(case):
    group, table = case
    assert list(group.center().indices) == oracles.center(table)
    assert list(group.derived_subgroup().indices) == oracles.derived_subgroup(table)


def test_predicates(case):
    group, table = case
    classes = oracles.conjugacy_classes(table)
    assert group.is_nilpotent() == oracles.is_nilpotent(table)
    assert group.is_simple() == oracles.is_simple(table, classes)
    assert group.is_abelian() == (len(oracles.center(table)) == group.order)


def test_normal_closure_and_subgroup_check(case):
    # For each class C: the normal closure of C is the subgroup generated by
    # its conjugates, and subgroup() accepts exactly the candidate sets
    # that pass the all-pairs check.
    group, table = case
    class_of, reps, _ = oracles.conjugacy_classes(table)
    for c in range(len(reps)):
        members = [x for x in range(group.order) if class_of[x] == c]
        closed = oracles.closure(table, members)
        assert list(group.normal_closure([reps[c]]).indices) == closed
        for candidate in (closed, sorted({0, *members})):
            if oracles.is_subgroup(table, candidate):
                assert list(group.subgroup(candidate).indices) == candidate
            else:
                with pytest.raises(ValueError):
                    group.subgroup(candidate)


@pytest.mark.parametrize("defn,cycles", [
    (symmetric(3), [[(1, 2)], [(1, 3)]]),
    (symmetric(3), [[], [(1, 2)], [(1, 3)]]),
    (symmetric(3), [[], [(1, 2, 3)], [(1, 3, 2)], [(1, 2)]]),
    # Order 4 in D4 but without the square of (1 4 3 2): only re-closing the
    # new members under every generator finds a product outside the set.
    (dihedral(4), [[], [(2, 4)], [(1, 2), (3, 4)], [(1, 4, 3, 2)]]),
], ids=["no-identity", "inverse-closed-not-product-closed",
        "greedy-generators-leave-set", "greedy-new-members-leave-set"])
def test_subgroup_rejections(defn, cycles):
    for limit in (None, 2):
        group = build(defn) if limit is None else build(defn, cayley_limit=limit)
        candidate = [group.index_of(Permutation.from_cycles(group.degree, *c))
                     for c in cycles]
        assert not oracles.is_subgroup(oracles.product_table(group), candidate)
        with pytest.raises(ValueError):
            group.subgroup(candidate)
