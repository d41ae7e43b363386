"""Differential checks on permutation groups that nobody picked.

Hypothesis draws 1-4 generators of degree 2-6, duplicates and the identity
allowed, and keeps the group when its order is at most 120.  On each, the
spectra's fold is compared with the orbit count of every representative
(``oracles.tally``), the theorem battery with the slow battery built on
Morphisms (``oracles.assert_battery_matches``, on all three strategies),
the sweep's weights with the Inn(G)-orbits that
``oracles.every_morphism`` expands them into, and, on the small ones, that
expansion with the flat grid of generator images (``oracles.morphism_grid``),
which shares no code with the search.  A second strategy draws abelian
groups, direct products of 1-4 cyclic factors, generated by the factors'
generators (independent, so the spectra are counted over image subgroups)
or by random elements (mostly dependent, so they are swept), and compares
the fold with the same oracle.  A third strategy draws 1-5 generators of
degree 7, kept up to order 200; on those the structure predicates, centre,
derived subgroup, the cosets of the last two and the classes of G/N
kept for them are compared with the product-table oracles, and, where
|End| is small, the theorem battery over the representatives with the
battery over every endomorphism and each nontrivial tower's count on the
classes of G/N with R of the map induced on the permutation quotient, by
both counts.  On every draw with at most three
distinct non-identity declared generators, the search's generating set
must be those generators in declared order.  On every draw of the three
strategies, ``closure`` must equal the reference search that multiplies
one ``Permutation`` at a time (``oracles.assert_closure_matches``), the
inverses and element orders must equal the product-table
oracles, the structure flags must equal those decided by normal closures
alone (``oracles.assert_structure_flags``), and on every representative of
every draw the twisted classes, the battery's orbit pass, must equal
those swept on the product table (``oracles.assert_twisted_classes``),
and the battery's count on the classes of G/N must equal the orbits on G
of the twisted maps and N's columns and R of the map induced on G/N
(``oracles.assert_quotient_count``).  On every draw of the first strategy,
the conjugation columns must
equal ``conjugation(s)`` for each declared generator ``s``; on every
abelian draw, the simple flag must equal the per-class scan, and on every
draw of the first and third, the nilpotent flag must equal the lower
central series of the product table.  A fourth test takes each group A of
the first strategy times Z_q, q the smallest prime not dividing |A|, and
times a second draw B cut to the parts of its generators of order prime
to |A|, when that leaves |B| > 1 prime to |A|, and requires each
product's counters to be the multiplicative convolution of the factors'
and the orbit count's; A5 and S5 on 5 points, times Z7, and D8 times Z3^2
and F21 are explicit examples.  The draws are derandomized, so the
groups are the same on every run.
"""

from collections import Counter
from math import gcd, prod
from unittest import mock

from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

import oracles
import twistspec.spectra as spectra_mod
from twistspec.catalog import (abelian, alternating, build, cyclic,
                               dihedral, metacyclic, symmetric)
from twistspec.errors import OrderCapExceeded
from twistspec.group import _Budget, closure, orbits
from twistspec.morphism import DEFAULT_PRODUCT_BUDGET, weighted_sweep
from twistspec.perm import Permutation
from twistspec.spectra import _fold, theorem_battery
from twistspec.twisted import reidemeister_number, twisted_classes

ORDER_CAP = 120
# Groups up to this order are also enumerated from the flat grid.
GRID_ORDER = 16
# Abelian draws with more endomorphisms are rejected: the oracle counts the
# twisted classes of each one.
END_CAP = 1024
# Degree-7 draws are kept up to this order.
WIDE_ORDER_CAP = 200
# Degree-7 draws with more endomorphisms skip the battery oracle, which
# counts the twisted classes of each one and builds a quotient group for
# each one that is not injective.
BATTERY_END_CAP = 400
# A x Z_q draws are kept up to this order: the oracle counts the twisted
# classes of every representative of the product.  A5 x Z7 and S5 x Z7, the
# explicit examples, have orders 420 and 840.
PRODUCT_ORDER_CAP = 840


@st.composite
def permutation_groups(draw):
    degree = draw(st.integers(2, 6))
    generators = draw(st.lists(
        st.permutations(range(degree)).map(Permutation),
        min_size=1, max_size=4))
    try:
        return closure(degree, generators, order_cap=ORDER_CAP)
    except OrderCapExceeded:
        reject()


@st.composite
def cycles(draw, degree):
    """A cycle through 2 to ``degree`` drawn points, in the drawn order:
    few of them rarely generate all of S_n or A_n."""
    points = draw(st.lists(st.integers(0, degree - 1), min_size=2,
                           unique=True))
    images = list(range(degree))
    for p, q in zip(points, points[1:] + points[:1]):
        images[p] = q
    return Permutation(images)


@st.composite
def degree_seven_groups(draw):
    generators = draw(st.lists(cycles(7), min_size=1,
                               max_size=5))
    try:
        return closure(7, generators, order_cap=WIDE_ORDER_CAP)
    except OrderCapExceeded:
        reject()


def _assert_the_search_generators_rule(group):
    """The distinct non-identity declared generators, in declared order,
    are the search's generating set (the trivial group's is its identity)
    when they commute and their orders multiply to |G|, or when they do
    not commute and at most three remain; a commutative group's set is
    always a basis, whose orders multiply to |G|."""
    identity = Permutation.identity(group.degree)
    declared = tuple(group.index_of(g) for g in dict.fromkeys(group.generators)
                     if g != identity)
    gens = group.small_generating_set()
    orders = [p.order() for p in group.elements]
    if all(g * h == h * g for g in group.generators for h in group.generators):
        assert prod(orders[g] for g in gens) == group.order
        kept = prod(orders[g] for g in declared) == group.order
    else:
        kept = len(declared) <= 3
    if kept:
        assert gens == (declared or (0,))


def _assert_the_one_pass_matches(group, table):
    """``oracles.assert_twisted_classes`` on the product ``table`` and
    ``oracles.assert_quotient_count`` on every representative."""
    for phi, _ in weighted_sweep(group):
        oracles.assert_twisted_classes(phi, table)
        oracles.assert_quotient_count(phi)


def _assert_fold_matches_the_orbit_count(group, automorphisms):
    """``_fold`` against ``oracles.tally`` over the weighted sweep, whose
    items it returns; an Aut fold's callers read only its first counter."""
    sweep = list(weighted_sweep(group, automorphisms=automorphisms))
    read = 1 if automorphisms else 2
    assert (_fold(group, automorphisms, _Budget(DEFAULT_PRODUCT_BUDGET))[:read]
            == oracles.tally(sweep, "orbits")[:read])
    return sweep


@st.composite
def abelian_groups(draw):
    orders = []
    for _ in range(draw(st.integers(1, 4))):
        room = ORDER_CAP // prod(orders)
        if room < 2:
            break
        orders.append(draw(st.integers(2, room)))
    # |End| of a product of cyclic groups of orders n_i: prod gcd(n_i, n_j).
    if prod(gcd(m, n) for m in orders for n in orders) > END_CAP:
        reject()
    group = build(abelian(*orders))
    if draw(st.booleans()):
        indices = draw(st.permutations(group.generator_indices()))
    else:
        indices = draw(st.lists(st.integers(1, group.order - 1),
                                min_size=1, max_size=4))
    return closure(group.degree, [group.elements[i] for i in indices])


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(permutation_groups())
def test_fold_and_sweep_against_the_oracles(group):
    oracles.assert_closure_matches(group.degree, group.generators)
    _assert_the_search_generators_rule(group)
    assert group._conjugation_columns() == [
        group.conjugation(s) for s in group.generator_indices()]
    gens = group.small_generating_set()
    assert oracles.subgroup_closure(group, gens) == tuple(range(group.order))

    table = oracles.product_table(group)
    oracles.assert_element_tables(group, table)
    assert group.is_nilpotent() == oracles.is_nilpotent(table)
    oracles.assert_structure_flags(group)
    oracles.assert_battery_matches(group)
    _assert_the_one_pass_matches(group, table)
    for automorphisms in (False, True):
        sweep = _assert_fold_matches_the_orbit_count(group, automorphisms)
        every = oracles.every_morphism(group, automorphisms)
        assert sum(weight for _, weight in sweep) == len(every)
        if group.order <= GRID_ORDER:
            assert every == sorted(
                oracles.morphism_grid(table, gens, automorphisms))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(abelian_groups())
def test_abelian_fold_against_the_oracle(group):
    oracles.assert_closure_matches(group.degree, group.generators)
    _assert_the_search_generators_rule(group)
    # Simple iff |G| is prime, against the per-class scan.
    assert group.is_simple() == group._is_simple_modulo(
        group.trivial_subgroup())
    oracles.assert_structure_flags(group)
    table = oracles.product_table(group)
    oracles.assert_element_tables(group, table)
    oracles.assert_battery_matches(group)
    _assert_the_one_pass_matches(group, table)
    # Every draw is counted, from independent and dependent generators.
    with mock.patch.object(spectra_mod, "_search",
                           wraps=spectra_mod._search) as search:
        for automorphisms in (False, True):
            _assert_fold_matches_the_orbit_count(group, automorphisms)
    assert not search.called


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(degree_seven_groups())
def test_structure_and_cosets_against_the_table_oracles(group):
    oracles.assert_closure_matches(group.degree, group.generators)
    _assert_the_search_generators_rule(group)
    table = oracles.product_table(group)
    oracles.assert_element_tables(group, table)
    center, derived = group.center(), group.derived_subgroup()
    assert list(center.indices) == oracles.center(table)
    assert list(derived.indices) == oracles.derived_subgroup(table)
    assert group.is_abelian() == (center.order == group.order)
    assert group.is_perfect() == (derived.order == group.order)
    assert group.is_nilpotent() == oracles.is_nilpotent(table)
    assert group.is_simple() == oracles.is_simple(
        table, oracles.conjugacy_classes(table))
    assert group.is_quasisimple() == (
        group.is_perfect() and oracles.quotient_is_simple(group, center))
    oracles.assert_structure_flags(group)
    for sub in (center, derived):
        cosets = orbits(group.order, [group.column(h) for h in sub.generators])
        assert ((list(cosets.class_of), list(cosets.representatives))
                == oracles.left_cosets(group, sub.indices))
        oracles.assert_quotient_classes(group, sub)
    _assert_the_one_pass_matches(group, table)
    oracles.assert_battery_matches(group)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(degree_seven_groups())
def test_battery_against_every_endomorphism(group):
    sweep = list(weighted_sweep(group))
    if sum(weight for _, weight in sweep) > BATTERY_END_CAP:
        reject()
    got = theorem_battery(group)
    want = oracles.battery_over(group, oracles.morphisms(group))
    assert ([(chk.name, chk.passed, chk.witness is None) for chk in got]
            == [(chk.name, chk.passed, chk.witness is None) for chk in want])
    assert all(chk.passed for chk in got)
    for phi, _ in sweep:
        tower = phi.iterated_kernel()
        if tower.is_trivial():
            continue
        induced = oracles.induced_on_quotient(phi, tower)
        assert (oracles.assert_quotient_count(phi)
                == reidemeister_number(induced)
                == twisted_classes(induced).count)


def _convolve(left, right):
    """The counter of the products a * b, each with weight m * n, over the
    items (a, m) of ``left`` and (b, n) of ``right``."""
    out = Counter()
    for a, m in left.items():
        for b, n in right.items():
            out[a * b] += m * n
    return out


def _prime_to(g, n):
    """The power of the permutation ``g`` whose order is the part of
    ``g``'s order prime to ``n``."""
    rest, e = g.order(), 1
    while (d := gcd(rest, n)) > 1:
        rest, e = rest // d, e * d
    images = list(range(g.degree))
    for _ in range(e):
        images = [g[x] for x in images]
    return Permutation(images)


def _assert_coprime_product_multiplies(left, right):
    """For A = ``left`` and B = ``right`` of coprime orders, Hom(A, B) and
    Hom(B, A) are trivial, so End(A x B) = End(A) x End(B), an
    automorphism is a pair of automorphisms, and R(phi x psi) =
    R(phi) R(psi).  The product's counters, with A and B acting on disjoint
    points, are then the multiplicative convolution of the factors', and
    also the orbit count's over the product's sweep."""
    n, m = left.degree, right.degree
    product = closure(n + m, [
        *(Permutation([*g, *range(n, n + m)]) for g in left.generators),
        *(Permutation([*range(n), *(n + x for x in g)])
          for g in right.generators)])
    assert product.order == left.order * right.order
    for automorphisms in (False, True):
        read = 1 if automorphisms else 2  # an Aut fold's first counter
        folds = [_fold(group, automorphisms,
                       _Budget(DEFAULT_PRODUCT_BUDGET))[:read]
                 for group in (left, right, product)]
        _assert_fold_matches_the_orbit_count(product, automorphisms)
        assert list(folds[2]) == [_convolve(a, b)
                                  for a, b in zip(folds[0], folds[1])]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(permutation_groups(), permutation_groups())
@example(build(alternating(5)), build(cyclic(1)))
@example(build(symmetric(5)), build(cyclic(1)))
@example(build(dihedral(4)), build(abelian(3, 3)))
@example(build(dihedral(4)), build(metacyclic(7, 3, 2)))
def test_coprime_direct_product_multiplies_the_counters(factor, other):
    """A x Z_q, q the smallest prime not dividing |A|, and A x B, B
    generated by the parts of the second draw's generators of order prime
    to |A|, when |B| > 1 is prime to |A| and |A x B| is within the order
    cap.  D8 x Z3^2 and D8 x F21 are explicit examples."""
    q = next(p for p in range(2, factor.order + 2)
             if factor.order % p and all(p % d for d in range(2, p)))
    if factor.order * q > PRODUCT_ORDER_CAP:
        reject()
    _assert_coprime_product_multiplies(factor, build(cyclic(q)))
    other = closure(other.degree, [_prime_to(g, factor.order)
                                   for g in other.generators])
    if (other.order > 1 and gcd(factor.order, other.order) == 1
            and factor.order * other.order <= PRODUCT_ORDER_CAP):
        _assert_coprime_product_multiplies(factor, other)
