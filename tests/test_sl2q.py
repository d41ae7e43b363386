"""SL(2,q) over the field of q = p^f elements, on the q^2 - 1 nonzero
vectors of GF(q)^2, checked against classical facts.

k(SL(2,q)) is q + 4 for odd q and q + 1 for even q.  For q >= 4,
Aut(SL(2,q)) = PGammaL(2,q) has order f q (q^2 - 1): the field
automorphisms give |Out| a factor f that no SL(2,p) has.  The Frobenius F,
x -> x^p on the entries, satisfies R(F^i) = k(SL(2, p^gcd(i, f))) by
Shintani descent for the connected group SL_2 (Shintani, J. Math. Soc.
Japan 28, 1976).  The spectra are pinned too: each sums to |Aut| and
holds every R(F^i).  These groups stay out of ``shipped_catalog()``.
"""

from math import gcd

import pytest

from twistspec.catalog import GroupDefinition, build
from twistspec.morphism import morphism_from_images
from twistspec.perm import Permutation
from twistspec.spectra import spectrum, theorem_battery
from twistspec.twisted import reidemeister_number

# q -> (p, f) and the spectrum of SL(2,q), each value with its multiplicity.
FIELDS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4)}
SPECTRA = {4: {3: 60, 5: 60},
           8: {3: 1008, 9: 504},
           9: {3: 360, 7: 360, 9: 360, 13: 360},
           16: {3: 8160, 5: 4080, 17: 4080}}


def class_number(q):
    return q + 1 if q % 2 == 0 else q + 4


def field(p, f):
    """Addition and multiplication tables of GF(p^f) on 0, ..., p^f - 1,
    the base-p digits of an element being its coefficients, lowest first.
    The modulus is the first monic polynomial of degree f, by its lower
    coefficients read as a number, whose quotient ring has no zero
    divisors, so it is irreducible and the ring a field."""
    q = p ** f

    def digits(a):
        return [a // p ** i % p for i in range(f)]

    def number(coefficients):
        return sum(c * p ** i for i, c in enumerate(coefficients))

    add = [[number((x + y) % p for x, y in zip(digits(a), digits(b)))
            for b in range(q)] for a in range(q)]
    for tail in range(q):
        modulus = digits(tail)  # x^f = -(the lower coefficients)

        def mul(a, b):
            product = [0] * (2 * f - 1)
            for i, x in enumerate(digits(a)):
                for j, y in enumerate(digits(b)):
                    product[i + j] += x * y
            for degree in range(2 * f - 2, f - 1, -1):
                c, product[degree] = product[degree], 0
                for i, m in enumerate(modulus):
                    product[degree - f + i] -= c * m
            return number(c % p for c in product[:f])

        table = [[mul(a, b) for b in range(q)] for a in range(q)]
        if all(0 not in row[1:] for row in table[1:]):
            return add, table
    raise AssertionError(f"no irreducible polynomial of degree {f} over F_{p}")


def sl2q(q):
    """SL(2,q) generated by the rotation [[0,-1],[1,0]], the shear
    [[1,1],[0,1]] and diag(w, w^-1) for a primitive element w, and the
    generator images under F^i, for i = 0, ..., f."""
    p, f = FIELDS[q]
    add, mul = field(p, f)
    minus_one = next(x for x in range(q) if add[x][1] == 0)

    def power(x, n):
        result = 1
        for _ in range(n):
            result = mul[result][x]
        return result

    w = next(x for x in range(2, q) if all(power(x, n) != 1
                                           for n in range(1, q - 1)))
    points = [(x, y) for x in range(q) for y in range(q) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(points)}

    def row(a, b, c, d):
        return [index[(add[mul[a][x]][mul[b][y]], add[mul[c][x]][mul[d][y]])]
                + 1 for (x, y) in points]

    def generator_rows(i):
        v = power(w, p ** i)  # F^i(w); F^i fixes the prime field
        return [row(0, minus_one, 1, 0), row(1, 1, 0, 1),
                row(v, 0, 0, power(v, q - 2))]

    defn = GroupDefinition(f"SL(2,{q})", q * q - 1, generator_rows(0),
                           {"order": q * (q * q - 1),
                            "class_number": class_number(q)})
    frobenius_images = [[Permutation.one_based(r) for r in generator_rows(i)]
                        for i in range(f + 1)]
    return defn, frobenius_images


@pytest.fixture(scope="module", params=sorted(FIELDS), ids=lambda q: f"q{q}")
def case(request):
    q = request.param
    defn, frobenius_images = sl2q(q)
    group = build(defn)
    return q, group, frobenius_images, spectrum(group)


def test_order_and_class_number(case):
    q, group, _, _ = case
    assert group.order == q * (q * q - 1)
    assert group.class_number() == class_number(q)


def test_frobenius_powers_descend(case):
    """R(F^i) = k(SL(2, p^gcd(i, f))) for i = 1, ..., f; F^f = 1."""
    q, group, frobenius_images, spec = case
    p, f = FIELDS[q]
    values = []
    for i in range(1, f + 1):
        phi = morphism_from_images(group, frobenius_images[i])
        assert phi.is_automorphism()
        values.append(reidemeister_number(phi))
    assert values == [class_number(p ** gcd(i, f)) for i in range(1, f + 1)]
    assert (morphism_from_images(group, frobenius_images[f]).table
            == tuple(range(group.order)))
    assert set(values) <= set(spec)


def test_spectrum_counts_the_field_automorphisms(case):
    q, _, _, spec = case
    f = FIELDS[q][1]
    assert sum(spec.values()) == f * q * (q * q - 1)
    assert spec == SPECTRA[q]


def test_theorem_battery_passes(case):
    group = case[1]
    checks = theorem_battery(group)
    assert [check.name for check in checks if not check.passed] == []
    assert "quasisimple-dichotomy" in {check.name for check in checks}
