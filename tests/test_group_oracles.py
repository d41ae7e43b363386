"""The generator-action algorithms of the group layer against the quadratic
definitions in ``oracles.py``, on every catalog group and on A5 and S5 built
from a redundant generating set (also the morphism search's extension
steps); the derived small generating sets against the greedy whose every
round scans all candidates, on abelian groups from seeded random, mostly
dependent, generating sets too; twisted classes and kernel towers on every
endomorphism of the catalog groups of order <= 24."""

import random
from collections import Counter
from math import prod

import pytest

import oracles
from twistspec.catalog import (GroupDefinition, abelian, alternating, build,
                               dihedral, direct_product, m9,
                               quaternion_dicyclic, shipped_catalog,
                               symmetric)
from twistspec.errors import BudgetExceeded
from twistspec.group import FiniteGroup, _Budget, closure, orbits
from twistspec.morphism import _levels, inner_automorphism
from twistspec.perm import Permutation
from twistspec.twisted import twisted_classes


def _redundant(defn):
    """``defn`` with its first generator repeated, the product of the two
    and the identity added: more than three generators, so the morphism
    search derives its own."""
    first, second = defn.permutations()
    perms = (first, second, first, first * second,
             Permutation.identity(defn.degree))
    return GroupDefinition(defn.name, defn.degree,
                           [p.to_one_based() for p in perms], defn.expected)


# A5 and S5 run twice.  The second cases, suffixed "-no-table" since they
# once ran without a product table, now take a redundant generating set.
CASES = [(defn, "") for defn in shipped_catalog()] + [
    (_redundant(defn), "-no-table") for defn in (alternating(5), symmetric(5))
]


def _case_id(case):
    defn, suffix = case
    return defn.name + suffix


@pytest.fixture(scope="module", params=CASES, ids=_case_id)
def case(request):
    group = build(request.param[0])
    return group, oracles.product_table(group)


def test_products_and_table(case):
    group, table = case
    assert [[group.product(i, j) for j in range(group.order)]
            for i in range(group.order)] == table
    assert [group.row(i) for i in range(group.order)] == table


def test_inverses_and_element_orders(case):
    oracles.assert_element_tables(*case)


@pytest.fixture
def permutation_calls(monkeypatch):
    """Counts the calls of ``Permutation.inverse`` and ``Permutation.order``
    made while the fixture is active."""
    calls = Counter()

    def spy(name):
        method = getattr(Permutation, name)

        def spied(self):
            calls[name] += 1
            return method(self)
        monkeypatch.setattr(Permutation, name, spied)

    spy("inverse")
    spy("order")
    return calls


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_element_tables_read_the_tree_and_the_classes(case,
                                                      permutation_calls):
    # Inverses come from the Schreier tree, with no Permutation.inverse;
    # element orders take one Permutation.order per conjugacy class.
    group = build(case[0])
    permutation_calls.clear()
    group.inverses()
    assert permutation_calls["inverse"] == 0
    classes = group.conjugacy_classes()
    group.element_orders()
    assert permutation_calls == {"order": classes.count}


@pytest.mark.parametrize("defn, rows", [
    (symmetric(4), 2), (quaternion_dicyclic(2), 2), (m9(), 4),
], ids=["S4", "Q8", "M9"])
def test_each_inverse_generator_row_is_built_once(defn, rows, monkeypatch):
    # One row(s^-1) per declared generator, found through s's column and
    # shared by the inverses, the conjugation columns and the twisted
    # maps; the classes need no inverses.
    calls = []
    row = FiniteGroup.row
    monkeypatch.setattr(FiniteGroup, "row",
                        lambda self, a: calls.append(a) or row(self, a))
    group = closure(defn.degree, defn.permutations())
    group.conjugacy_classes()
    group._inverse_generator_rows()
    group.inverses()
    assert len(calls) == rows


def test_repeated_and_identity_generators():
    # S4 declared as (a, a, 1, b): the inverses read the row of the column
    # the Schreier tree holds, the first of a's two, and the identity's
    # conjugation is the identity map.
    a, b = symmetric(4).permutations()
    group = closure(4, [a, a, Permutation.identity(4), b])
    table = oracles.product_table(group)
    inv = oracles.inverses(table)
    assert group.inverses() == inv
    conjugations = group._conjugation_columns()
    assert conjugations == [
        [table[table[inv[s]][x]][s] for x in range(group.order)]
        for s in group.generator_indices()]
    assert conjugations[2] == list(range(group.order))


def test_conjugacy_classes(case):
    group, table = case
    conjugations = group._conjugation_columns()
    assert conjugations == [
        group.conjugation(s) for s in group.generator_indices()]
    # The conjugation columns are the group's cached twisted maps of each
    # declared generator onto itself.
    assert all(conjugations[i] is group._twisted[i, s]
               for i, s in enumerate(group.generator_indices()))
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
    # The scan stays the slow oracle for the prime-order rule.
    assert group.is_simple() == group._is_simple_modulo(
        group.trivial_subgroup())
    # Quasisimple: perfect, with G/Z(G) simple.
    perfect = oracles.derived_subgroup(table) == list(range(group.order))
    assert group.is_perfect() == perfect
    assert group.is_quasisimple() == (
        perfect and oracles.quotient_is_simple(group, group.center()))
    assert group.is_abelian() == (len(oracles.center(table)) == group.order)


def test_normal_closure_and_subgroup_check(case):
    # For each class C: the normal closure of C is the subgroup generated by
    # its conjugates, and subgroup() accepts exactly the candidate sets
    # that pass the all-pairs check.  Seeded random sets of 0-3 seeds,
    # repeats and the identity among them, as is_perfect and
    # _is_simple_modulo pass: their normal closure is the subgroup
    # generated by every conjugate of every seed.
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
    inv = oracles.inverses(table)
    rng = random.Random(group.order)
    last = group.order - 1
    for seeds in [[0, 0], [last, 0, last], *(
            rng.choices(range(group.order), k=rng.randint(0, 3))
            for _ in range(6))]:
        conjugates = {table[table[inv[h]][s]][h]
                      for s in seeds for h in range(group.order)}
        assert list(group.normal_closure(seeds).indices) == oracles.closure(
            table, conjugates)


def test_cosets_and_projection(case):
    # The left cosets of the center, of the derived subgroup and of the
    # first generator's cyclic subgroup (often not normal) are the orbits
    # of right multiplication by the subgroup's generators.  For the normal
    # ones, the classes of G/N that quotient_classes keeps as a partition
    # of G are the preimages of the oracle quotient's conjugacy classes,
    # read off its product table; the oracle's projection onto that
    # quotient has kernel N and respects products, and G/N is simple
    # exactly when the quotient is.
    group, table = case
    first = group.generator_indices()[:1]
    cyclic = group.subgroup(oracles.subgroup_closure(group, first))
    center, derived = group.center(), group.derived_subgroup()
    for sub in (cyclic, center, derived):
        cosets = orbits(group.order, [group.column(h) for h in sub.generators])
        assert ((list(cosets.class_of), list(cosets.representatives))
                == oracles.left_cosets(group, sub.indices))
    for sub in (center, derived):
        oracles.assert_quotient_classes(group, sub)
        quotient_group, projection = oracles.quotient(group, sub)
        assert [x for x, t in enumerate(projection) if t == 0] == \
            list(sub.indices)
        assert all(projection[table[a][b]]
                   == quotient_group.product(projection[a], projection[b])
                   for a in range(group.order)
                   for b in group.generator_indices())
        assert group._is_simple_modulo(sub) == \
            oracles.quotient_is_simple(group, sub)


def test_inner_automorphisms(case):
    group, table = case
    for c in range(group.order):
        assert list(inner_automorphism(group, c).table) == \
            oracles.inner_automorphism(table, c)


def test_extension_levels(case):
    # Over all depths each (element, generator) pair is one step; a step
    # reads an image already set and sets the image of y exactly when no
    # earlier step has; after depth j the table covers <gens[:j+1]>.
    group, table = case
    for gens in (group.small_generating_set(), group.generator_indices()):
        assigned = {0}
        pairs = []
        for j, steps in enumerate(_levels(group, gens)):
            for x, i, y, new in steps:
                assert x in assigned and i <= j
                assert y == table[x][gens[i]]
                assert new == (y not in assigned)
                assigned.add(y)
                pairs.append((x, i))
            assert sorted(assigned) == oracles.closure(table, gens[:j + 1])
        assert sorted(pairs) == [(x, i) for x in range(group.order)
                                 for i in range(len(gens))]


def _coxeter(n):
    """S_n from its n - 1 Coxeter transpositions (i i+1)."""
    return GroupDefinition(f"S{n}", n, [
        Permutation.from_cycles(n, (i, i + 1)).to_one_based()
        for i in range(1, n)])


@pytest.mark.parametrize("defn", [
    _coxeter(5), _coxeter(6), m9(), direct_product(symmetric(3),
                                                   symmetric(3)),
    abelian(2, 2, 2, 2), abelian(2, 2, 2, 2, 2),
    *oracles.random_generating_sets(),
], ids=lambda defn: defn.name)
def test_small_generating_set_matches_the_full_scan(defn):
    """Non-abelian groups from more than three generators scan; abelian
    ones keep a declared basis (Z2^4, Z2^5) and scan for a basis from a
    dependent set."""
    group = build(defn)
    gens = group.small_generating_set()
    assert gens == oracles.small_generating_set(build(defn))
    assert oracles.subgroup_closure(group, gens) == tuple(range(group.order))
    if group.is_abelian():
        assert prod(group.elements[g].order() for g in gens) == group.order
    else:
        assert len(group.generator_indices()) > 3


def test_small_generating_set_of_s7_from_coxeter_generators():
    # The second pick already closes S7, so its round's scan stops there;
    # scanning all 5040 candidates of every round takes about 10 s.
    group = build(_coxeter(7))
    gens = group.small_generating_set()
    assert len(gens) == 2
    assert oracles.subgroup_closure(group, gens) == tuple(range(5040))


def test_the_generating_set_scan_is_charged_to_the_budget(monkeypatch):
    # M9 from four generators scans.  A budget one short of the scan's
    # charges stops it before the closure that would exceed it, and nothing
    # is cached; the full budget gives the unbudgeted set.  Three declared
    # generators never scan, so they take no charge.
    charges = []
    charge = _Budget.charge

    def spied(self, amount):
        charges.append(amount)
        charge(self, amount)

    monkeypatch.setattr(_Budget, "charge", spied)
    gens = build(m9()).small_generating_set(_Budget(None))
    spent = sum(charges)
    assert spent > 0
    group = build(m9())
    with pytest.raises(BudgetExceeded):
        group.small_generating_set(_Budget(spent - 1))
    assert group.small_generating_set(_Budget(spent)) == gens
    charges.clear()
    s5 = build(symmetric(5))
    assert s5.small_generating_set(_Budget(0)) == s5.generator_indices()
    assert charges == []


SMALL = [defn.name for defn in shipped_catalog() if build(defn).order <= 24]


@pytest.mark.parametrize("name", SMALL)
def test_twisted_classes(name, small_groups, endos_of):
    group = small_groups[name]
    table = oracles.product_table(group)
    for phi in endos_of(name):
        partition = twisted_classes(phi)
        assert (list(partition.class_of), list(partition.representatives),
                list(partition.sizes)) == \
            oracles.twisted_classes(table, phi.table)


@pytest.mark.parametrize("name", SMALL)
def test_iterated_kernel(name, endos_of):
    for phi in endos_of(name):
        assert list(phi.iterated_kernel().indices) == \
            oracles.iterated_kernel(phi.table)


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
    group = build(defn)
    candidate = [group.index_of(Permutation.from_cycles(group.degree, *c))
                 for c in cycles]
    assert not oracles.is_subgroup(oracles.product_table(group), candidate)
    with pytest.raises(ValueError):
        group.subgroup(candidate)
