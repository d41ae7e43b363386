import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from twistspec.errors import OrderCapExceeded
from twistspec.group import FiniteGroup, closure
from twistspec.perm import Permutation
from twistspec.catalog import (abelian, alternating, build, cyclic,
                               direct_product, metacyclic,
                               quaternion_dicyclic, shipped_catalog, sl2,
                               symmetric)
from twistspec.spectra import structure_flags, theorem_battery


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
            frozenset(i for i, c in enumerate(partition.class_of) if c == k)
            for k in range(partition.count)
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
            assert partition.class_of.index(c) == rep


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


@pytest.fixture
def normal_closures(monkeypatch):
    """The seeds of every ``FiniteGroup._normal_closure`` call, in order."""
    calls = []
    normal_closure = FiniteGroup._normal_closure
    monkeypatch.setattr(FiniteGroup, "_normal_closure",
                        lambda self, seeds: calls.append(seeds)
                        or normal_closure(self, seeds))
    return calls


@pytest.fixture
def simplicity_scans(monkeypatch):
    """|N| for every ``FiniteGroup._is_simple_modulo`` call, in order."""
    calls = []
    scan = FiniteGroup._is_simple_modulo
    monkeypatch.setattr(FiniteGroup, "_is_simple_modulo",
                        lambda self, sub: calls.append(sub.order)
                        or scan(self, sub))
    return calls


def test_nilpotency_reads_the_element_orders(normal_closures):
    # is_nilpotent counts the elements of p-power order and builds no normal
    # closure.  The catalog's structure flags take 8 of them, each the
    # derived subgroup of a group that no certificate settles.
    for defn in shipped_catalog():
        structure_flags(build(defn))
    assert len(normal_closures) == 8
    normal_closures.clear()
    for defn in shipped_catalog():
        group = build(defn)
        group.conjugacy_classes()
        group.is_nilpotent()
    assert normal_closures == []


@pytest.mark.parametrize("defn", [symmetric(6), alternating(6), sl2(23)],
                         ids=["S6", "A6", "SL(2,23)"])
def test_structure_flags_from_certificates(defn, normal_closures):
    # No normal closure: S6 has an odd generator, so it is neither perfect
    # nor simple; A6's commutators and each of its classes normally generate
    # it by the class equation; SL(2,23) is perfect by the class equation,
    # not simple by its centre, and each class outside the centre generates
    # G modulo the centre by the class equation.
    structure_flags(build(defn))
    assert normal_closures == []


@pytest.mark.parametrize("defn, simple, quasisimple, scans", [
    # S6 is not perfect (its transposition is odd, and S6' = A6): no scan.
    (symmetric(6), False, False, 0),
    # Perfect with a trivial centre: is_quasisimple reuses the scan.
    (alternating(6), True, True, 1),
    # Perfect with a centre of order 2: one scan for N = 1, one for N = Z.
    (sl2(5), False, True, 2),
    # Abelian: simple iff |G| is prime, with no scan.
    (cyclic(7), True, False, 0),
    (cyclic(1), False, False, 0),
    (cyclic(1009), True, False, 0),
], ids=["S6", "A6", "SL(2,5)", "Z7", "Z1", "Z1009"])
def test_simplicity_from_the_derived_subgroup(defn, simple, quasisimple,
                                              scans, simplicity_scans):
    calls = simplicity_scans
    group = build(defn)
    assert (group.is_simple(), group.is_quasisimple(),
            group.is_simple()) == (simple, quasisimple, simple)
    assert len(calls) == scans
    # Asked in the other order, the same scans run: with a trivial centre
    # is_quasisimple runs is_simple's scan, which is_simple then reads.
    calls.clear()
    group = build(defn)
    assert (group.is_quasisimple(), group.is_simple()) == (quasisimple,
                                                           simple)
    assert len(calls) == scans


@pytest.mark.parametrize("defn, scans", [
    # A6: one scan for N = 1, which is_quasisimple reads.
    (alternating(6), [1]),
    # SL(2,5): one scan for N = 1 and one for N = Z(G) of order 2.
    (sl2(5), [1, 2]),
], ids=["A6", "SL(2,5)"])
def test_structure_data_is_computed_once(defn, scans, normal_closures,
                                         simplicity_scans):
    # The battery reads the flags that structure_flags left on the group,
    # and a second structure_flags call reads them too: no scan reruns and
    # no normal closure is built.
    group = build(defn)
    flags = structure_flags(group)
    assert simplicity_scans == scans
    normal_closures.clear()
    assert structure_flags(group) == flags
    assert simplicity_scans == scans
    assert normal_closures == []
    assert all(check.passed for check in theorem_battery(group))
    assert simplicity_scans == scans


def test_quasisimple_with_trivial_center_builds_no_quotient(monkeypatch):
    # No group is materialized for G/Z(G), whatever the centre.
    import twistspec.group as group_mod

    a7 = build(alternating(7))
    sl25 = build(sl2(5))
    built = []
    monkeypatch.setattr(group_mod, "closure",
                        lambda *args, **kwargs: built.append(args))
    assert a7.center().order == 1
    assert a7.is_quasisimple()
    # SL(2,5) has a centre of order 2 and SL(2,5)/Z = A5.
    assert sl25.center().order == 2
    assert sl25.is_quasisimple()
    assert built == []


def test_perfect_central_extension_of_a_non_simple_group(monkeypatch):
    # SL(2,5)xA5 is perfect with Z of order 2, and G/Z = A5xA5 is not
    # simple; no group is materialized on the way.
    import twistspec.group as group_mod

    group = build(direct_product(sl2(5), alternating(5)))
    assert group.order == 7200
    built = []
    closure_of = group_mod.closure
    monkeypatch.setattr(group_mod, "closure", lambda *args, **kwargs:
                        built.append(args) or closure_of(*args, **kwargs))
    flags = structure_flags(group)
    assert built == []
    assert group.center().order == 2
    assert flags == {"abelian": False, "nilpotent": False, "perfect": True,
                     "simple": False, "quasisimple": False}


def test_sl27_is_quasisimple_and_a5xa5_is_not():
    sl27 = build(sl2(7))
    assert sl27.center().order == 2
    assert sl27.is_perfect() and not sl27.is_simple()
    assert sl27.is_quasisimple()
    a5xa5 = build(direct_product(alternating(5), alternating(5)))
    assert a5xa5.center().order == 1
    assert a5xa5.is_perfect()
    assert not a5xa5.is_simple()
    assert not a5xa5.is_quasisimple()


def test_quotient_examples():
    s3 = S3()
    a3 = s3.derived_subgroup()
    quotient, projection = oracles.quotient(s3, a3)
    assert quotient.order == 2
    kernel = tuple(x for x, t in enumerate(projection) if t == 0)
    assert kernel == a3.indices
    z4 = build(cyclic(4))
    two = z4.subgroup([0, oracles.power(z4, 1, 2)])
    assert oracles.quotient(z4, two)[0].order == 2
    # quotient by the trivial subgroup preserves the order
    full, proj = oracles.quotient(s3, s3.trivial_subgroup())
    assert full.order == 6
    assert sorted(proj) == list(range(6))
    # G/N is simple exactly when the oracle's quotient is.  In Z6 an element
    # of order 3 normally generates only Z3, so Z6/Z2 = Z3 needs N's
    # generators in the closure.
    z6 = build(cyclic(6))
    for group, sub in [(s3, a3), (s3, s3.trivial_subgroup()),
                       (s3, s3.subgroup(range(6))),
                       *((z6, z6.subgroup(oracles.subgroup_closure(z6, [g])))
                         for g in range(6))]:
        assert group._is_simple_modulo(sub) == \
            oracles.quotient_is_simple(group, sub)
    assert z6._is_simple_modulo(z6.subgroup([0, oracles.power(z6, 1, 3)]))


def test_derived_generating_set_caches_few_columns():
    # More than three declared generators: the search set is re-derived
    # greedily.  The first pick is an element of largest order; later
    # candidates are closed through columns that are not kept.
    group = closure(6, [Permutation.from_cycles(6, *cycles) for cycles in (
        [(1, 2)], [(1, 2, 3, 4, 5, 6)], [(1, 3)], [(2, 4, 6)])])
    gens = group.small_generating_set()
    assert oracles.subgroup_closure(group, gens) == tuple(range(720))
    assert group.element_order(gens[0]) == max(group.element_orders())
    assert sum(column is not None for column in group._columns) <= 64


def test_quotient_requires_normal():
    s3 = S3()
    transposition = s3.index_of(Permutation.from_cycles(3, (1, 2)))
    sub = s3.subgroup([0, transposition])
    with pytest.raises(ValueError):
        oracles.quotient(s3, sub)


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
