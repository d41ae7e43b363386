"""``closure`` against ``oracles.reference_closure``, the same breadth-first
search with every product a ``Permutation`` made by ``p * g``.

Both must give the same elements in the same order, the same index, the
same Schreier tree and the same declared generators' columns, and the
order cap must stop both at |G| - 1 and neither at |G|
(``oracles.assert_closure_matches``).  The cases are every catalog group;
S6, A6 and Z2^4, which are beyond the catalog; one-point groups with zero,
one and two generators, where a product is no ``itemgetter`` of one
point; and generating sets with a repeated generator or the identity.  The
three Hypothesis strategies of ``test_random_groups`` run the same check
on every draw.
"""

import pytest

import oracles
from twistspec.catalog import abelian, alternating, shipped_catalog, symmetric
from twistspec.perm import Permutation

DEFINITIONS = [*shipped_catalog(), symmetric(6), alternating(6),
               abelian(2, 2, 2, 2)]
ONE_POINT = Permutation([0])


@pytest.mark.parametrize("defn", DEFINITIONS, ids=lambda defn: defn.name)
def test_closure_against_the_reference(defn):
    group = oracles.assert_closure_matches(defn.degree, defn.permutations())
    assert group.order == defn.expected["order"]


@pytest.mark.parametrize("count", [0, 1, 2])
def test_one_point(count):
    assert oracles.assert_closure_matches(1, [ONE_POINT] * count).order == 1


# a = (1 2) and b = (1 2 3 4) generate S4; e is the identity.
@pytest.mark.parametrize("layout, order", [
    ("aab", 24), ("aba", 24), ("eab", 24), ("aebe", 24), ("aea", 2),
    ("e", 1), ("", 1)])
def test_repeated_generators_and_the_identity(layout, order):
    a, b = symmetric(4).permutations()
    generators = [{"a": a, "b": b, "e": Permutation.identity(4)}[name]
                  for name in layout]
    assert oracles.assert_closure_matches(4, generators).order == order
