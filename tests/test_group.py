import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from twistspec.errors import OrderCapExceeded
from twistspec.group import closure
from twistspec.perm import Permutation
from twistspec.catalog import (abelian, alternating, build, cyclic,
                               metacyclic, quaternion_dicyclic, symmetric)


def S3():
    return build(symmetric(3))


# -- closure -------------------------------------------------------------

def test_closure_s3_is_all_of_sym3():
    # oracle: the full symmetric group on 3 points
    group = closure(3, [Permutation.from_cycles(3, (1, 2)),
                        Permutation.from_cycles(3, (1, 2, 3))])
    assert group.order == 6
    assert set(group.elements) == {
        Permutation(p) for p in itertools.permutations(range(3))
    }
    assert group.elements[0] == Permutation.identity(3)
    assert len(set(group.elements)) == group.order


def test_closure_empty_generators_is_trivial():
    group = closure(4, [])
    assert group.order == 1


def test_closure_cyclic_four():
    group = closure(4, [Permutation.from_cycles(4, (1, 2, 3, 4))])
    assert group.order == 4


def test_order_cap_raises():
    with pytest.raises(OrderCapExceeded):
        closure(5, [Permutation.from_cycles(5, (1, 2)),
                    Permutation.from_cycles(5, (1, 2, 3, 4, 5))],
                order_cap=100)


def test_product_matches_permutation_composition():
    group = S3()
    for i, p in enumerate(group.elements):
        for j, q in enumerate(group.elements):
            assert group.elements[group.product(i, j)] == p * q


def test_element_orders():
    group = S3()
    assert group.element_order(0) == 1
    orders = sorted(group.element_orders())
    assert orders == [1, 2, 2, 2, 3, 3]


# -- conjugacy classes --------------------------------------------------------

def brute_classes(group):
    """Oracle: conjugate every element by every element."""
    class_of, reps, _ = oracles.conjugacy_classes(oracles.product_table(group))
    return {frozenset(x for x in range(group.order) if class_of[x] == c)
            for c in range(len(reps))}


@pytest.mark.parametrize("defn,sizes", [
    (symmetric(3), [1, 2, 3]),
    (alternating(4), [1, 3, 4, 4]),
    (cyclic(1), [1]),
])
def test_class_sizes(defn, sizes):
    group = build(defn)
    assert sorted(group.conjugacy_classes().sizes) == sizes


def test_classes_match_brute_force():
    for defn in (symmetric(3), alternating(4), quaternion_dicyclic(2)):
        group = build(defn)
        partition = group.conjugacy_classes()
        mine = {
            frozenset(partition.members(c)) for c in range(partition.count)
        }
        assert mine == brute_classes(group)


def test_class_invariants_across_catalog(catalog_groups):
    for group in catalog_groups.values():
        partition = group.conjugacy_classes()
        assert sum(partition.sizes) == group.order
        assert all(group.order % s == 0 for s in partition.sizes)
        assert partition.class_of[0] == 0 and partition.sizes[0] == 1
        # canonical numbering: representative is the smallest member
        for c, rep in enumerate(partition.representatives):
            assert min(partition.members(c)) == rep


def test_odd_order_groups_separate_inverse_classes(catalog_groups):
    for group in catalog_groups.values():
        if group.order % 2 == 0 or group.order == 1:
            continue
        partition = group.conjugacy_classes()
        for g in range(1, group.order):
            assert partition.class_of[g] != partition.class_of[group.inverse(g)]


# -- subgroups -----------------------------------------------------------------

def brute_center(group):
    return oracles.center(oracles.product_table(group))


def test_center_examples():
    assert build(abelian(2, 4)).center().order == 8
    assert S3().center().order == 1
    q8 = build(quaternion_dicyclic(2))
    assert q8.center().order == 2
    assert sorted(q8.center().indices) == brute_center(q8)


def brute_derived(group):
    return set(oracles.derived_subgroup(oracles.product_table(group)))


def test_derived_subgroup_examples():
    assert build(abelian(3, 3)).derived_subgroup().order == 1
    s3 = S3()
    derived = s3.derived_subgroup()
    assert derived.order == 3
    assert set(derived.indices) == brute_derived(s3)
    a5 = build(alternating(5))
    assert a5.derived_subgroup().order == 60  # perfect


def test_normal_closure_examples():
    s3 = S3()
    assert s3.normal_closure([]).order == 1
    three_cycle = s3.index_of(Permutation.from_cycles(3, (1, 2, 3)))
    assert s3.normal_closure([three_cycle]).order == 3
    a5 = build(alternating(5))
    assert a5.normal_closure([1]).order == 60  # simple


def test_subgroup_rejects_non_groups():
    s3 = S3()
    transposition = s3.index_of(Permutation.from_cycles(3, (1, 2)))
    rotation = s3.index_of(Permutation.from_cycles(3, (1, 2, 3)))
    with pytest.raises(ValueError):
        s3.subgroup([0, transposition, rotation])  # not closed
    with pytest.raises(ValueError):
        s3.subgroup([transposition])  # no identity


def test_structural_predicates():
    assert build(alternating(5)).is_simple()
    assert not build(alternating(4)).is_simple()
    assert build(cyclic(2)).is_simple()
    assert not build(cyclic(1)).is_simple()
    assert build(quaternion_dicyclic(2)).is_nilpotent()
    assert not S3().is_nilpotent()
    assert build(cyclic(1)).is_nilpotent()
    assert build(alternating(5)).is_quasisimple()
    assert not build(alternating(4)).is_quasisimple()
    assert not S3().is_abelian()
    assert build(abelian(2, 6)).is_abelian()


def test_quotient_examples():
    s3 = S3()
    a3 = s3.derived_subgroup()
    quotient, projection = s3.quotient(a3)
    assert quotient.order == 2
    assert projection.kernel().indices == a3.indices
    z4 = build(cyclic(4))
    two = z4.subgroup([0, z4.power(1, 2)])
    assert z4.quotient(two)[0].order == 2
    # quotient by the trivial subgroup preserves the order
    full, proj = s3.quotient(s3.trivial_subgroup())
    assert full.order == 6
    assert proj.is_automorphism() or len(set(proj.table)) == 6


def test_quotient_requires_normal():
    s3 = S3()
    transposition = s3.index_of(Permutation.from_cycles(3, (1, 2)))
    sub = s3.subgroup([0, transposition])
    with pytest.raises(ValueError):
        s3.quotient(sub)


def test_metacyclic_frobenius_classes():
    group = build(metacyclic(7, 3, 2))
    assert group.order == 21
    assert group.class_number() == 5  # brute force via the partition
    assert sorted(group.conjugacy_classes().sizes) == [1, 3, 3, 7, 7]


# -- hypothesis: random generator sets stay lawful -----------------------------

small_perm_sets = st.lists(
    st.permutations(list(range(4))).map(Permutation), min_size=0, max_size=3
)


@settings(max_examples=60, deadline=None)
@given(small_perm_sets)
def test_random_closures_are_groups(generators):
    group = closure(4, generators)
    assert 24 % group.order == 0  # Lagrange inside Sym(4)
    assert len(set(group.elements)) == group.order
    # closed under products on a sample of pairs
    for i in range(min(group.order, 6)):
        for j in range(min(group.order, 6)):
            assert group.elements[group.product(i, j)] in group._index
    partition = group.conjugacy_classes()
    assert sum(partition.sizes) == group.order
