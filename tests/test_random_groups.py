"""Differential checks on permutation groups that nobody picked.

Hypothesis draws 1-4 generators of degree 2-6, duplicates and the identity
allowed, and keeps the group when its order is at most 120.  On each, the
spectra's fold is compared with the orbit count of every representative
(``oracles.tally``), the sweep's weights with the Inn(G)-orbits that
``oracles.every_morphism`` expands them into, and, on the small ones, that
expansion with the flat grid of generator images (``oracles.morphism_grid``),
which shares no code with the search.  The draws are derandomized, so the
groups are the same on every run.
"""

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import oracles
from twistspec.errors import OrderCapExceeded
from twistspec.group import closure
from twistspec.morphism import DEFAULT_PRODUCT_BUDGET, weighted_sweep
from twistspec.perm import Permutation
from twistspec.spectra import _fold

ORDER_CAP = 120
# Groups up to this order are also enumerated from the flat grid.
GRID_ORDER = 16


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


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(permutation_groups())
def test_fold_and_sweep_against_the_oracles(group):
    gens = group.small_generating_set()
    assert oracles.subgroup_closure(group, gens) == tuple(range(group.order))

    classes = group.conjugacy_classes()
    for automorphisms in (False, True):
        sweep = list(weighted_sweep(group, automorphisms=automorphisms))
        assert (_fold(group, automorphisms, DEFAULT_PRODUCT_BUDGET)
                == oracles.tally(sweep, classes, "orbits"))
        every = oracles.every_morphism(group, automorphisms)
        assert sum(weight for _, weight in sweep) == len(every)
        if group.order <= GRID_ORDER:
            table = oracles.product_table(group)
            assert every == sorted(
                oracles.morphism_grid(table, gens, automorphisms))
