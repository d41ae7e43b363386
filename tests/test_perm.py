import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistspec.perm import Permutation

perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(n))).map(Permutation)
)


def test_identity_fixes_everything():
    e = Permutation.identity(5)
    assert [e(i) for i in range(5)] == list(range(5))
    assert e.order() == 1
    assert e.cycle_string() == "()"


def test_validation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        Permutation((0, 3))
    with pytest.raises(ValueError):
        Permutation.one_based([1, 1, 2])
    with pytest.raises(ValueError, match="degree must be positive"):
        Permutation.identity(0)


def test_compose_applies_right_factor_first():
    # direct evaluation oracle: walk each point through q then p
    p = Permutation.from_cycles(3, (1, 2, 3))
    q = Permutation.from_cycles(3, (1, 2))
    expected = Permutation(tuple(p[q[x]] for x in range(3)))
    assert p * q == expected
    assert p * q == Permutation.from_cycles(3, (1, 3))


def test_identity_is_neutral():
    p = Permutation.from_cycles(4, (1, 2, 3, 4))
    e = Permutation.identity(4)
    assert e * p == p
    assert p * e == p


@given(st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(*[st.permutations(list(range(n))).map(Permutation)]
                        * 2)))
def test_product_matches_pointwise_composition(pair):
    """``p * q`` is a Permutation with images p[q[x]], degree 1 included,
    where one point's image is not wrapped in a tuple."""
    p, q = pair
    product = p * q
    assert type(product) is Permutation
    assert product == tuple(p[x] for x in q)


def test_degree_one_product():
    e = Permutation.identity(1)
    assert type(e * e) is Permutation
    assert e * e == (0,) == e


def test_degree_mismatch_raises():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)


def test_from_cycles_rejects_overlap_and_range():
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, (1, 2), (2, 3))
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, (1, 4))


def test_one_based_round_trip():
    p = Permutation.from_cycles(5, (1, 3), (2, 4, 5))
    assert Permutation.one_based(p.to_one_based()) == p


def test_order_by_repeated_composition():
    # oracle: multiply until identity returns
    p = Permutation.from_cycles(6, (1, 2, 3), (4, 5))
    e = Permutation.identity(6)
    acc, n = p, 1
    while acc != e:
        acc = acc * p
        n += 1
    assert n == p.order() == 6


@given(perms)
def test_inverse_cancels(p):
    assert p * p.inverse() == Permutation.identity(p.degree)
    assert p.inverse() * p == Permutation.identity(p.degree)


@given(perms.flatmap(lambda p: st.tuples(
    st.just(p),
    st.permutations(list(range(p.degree))).map(Permutation),
    st.permutations(list(range(p.degree))).map(Permutation),
)))
def test_composition_associative(triple):
    p, q, r = triple
    assert (p * q) * r == p * (q * r)


@given(perms)
def test_cycles_reconstruct(p):
    assert Permutation.from_cycles(p.degree, *p.cycles()) == p
