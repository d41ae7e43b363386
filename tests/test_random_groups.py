"""Differential checks on permutation groups that nobody picked.

Hypothesis draws 1-4 generators of degree 2-6, duplicates and the identity
allowed, and keeps the group when its order is at most 120.  On each, the
spectra's fold is compared with the orbit count of every representative
(``oracles.tally``), the sweep's weights with the Inn(G)-orbits that
``oracles.every_morphism`` expands them into, and, on the small ones, that
expansion with the flat grid of generator images (``oracles.morphism_grid``),
which shares no code with the search.  A second strategy draws abelian
groups, direct products of 1-4 cyclic factors, generated by the factors'
generators (independent, so the spectra are counted over image subgroups)
or by random elements (mostly dependent, so they are swept), and compares
the fold with the same oracle.  The draws are derandomized, so the groups
are the same on every run.
"""

from math import gcd, prod

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import oracles
from twistspec.catalog import abelian, build
from twistspec.errors import OrderCapExceeded
from twistspec.group import closure
from twistspec.morphism import DEFAULT_PRODUCT_BUDGET, weighted_sweep
from twistspec.perm import Permutation
from twistspec.spectra import _fold

ORDER_CAP = 120
# Groups up to this order are also enumerated from the flat grid.
GRID_ORDER = 16
# Abelian draws with more endomorphisms are rejected: the oracle counts the
# twisted classes of each one.
END_CAP = 1024


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


def _assert_fold_matches_the_orbit_count(group, automorphisms):
    """``_fold`` against ``oracles.tally`` over the weighted sweep, whose
    items it returns."""
    sweep = list(weighted_sweep(group, automorphisms=automorphisms))
    assert (_fold(group, automorphisms, DEFAULT_PRODUCT_BUDGET)
            == oracles.tally(sweep, group.conjugacy_classes(), "orbits"))
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
    gens = group.small_generating_set()
    assert oracles.subgroup_closure(group, gens) == tuple(range(group.order))

    for automorphisms in (False, True):
        sweep = _assert_fold_matches_the_orbit_count(group, automorphisms)
        every = oracles.every_morphism(group, automorphisms)
        assert sum(weight for _, weight in sweep) == len(every)
        if group.order <= GRID_ORDER:
            table = oracles.product_table(group)
            assert every == sorted(
                oracles.morphism_grid(table, gens, automorphisms))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(abelian_groups())
def test_abelian_fold_against_the_oracle(group):
    for automorphisms in (False, True):
        _assert_fold_matches_the_orbit_count(group, automorphisms)
