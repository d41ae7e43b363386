import itertools

import pytest

from twistspec.errors import BudgetExceeded, NotAHomomorphism
from twistspec.morphism import (Morphism, _verify_table,
                                enumerate_automorphisms,
                                enumerate_endomorphisms, identity_morphism,
                                inner_automorphism, morphism_from_images)
from twistspec.perm import Permutation
from twistspec.catalog import (abelian, alternating, build, cyclic,
                               quaternion_dicyclic, sl2, symmetric, m9)


@pytest.fixture(scope="module")
def s3():
    return build(symmetric(3))


def sign_like(s3):
    """S3 -> S3 with image {id, (1 2)}: kernel is the rotation subgroup."""
    t = Permutation.from_cycles(3, (1, 2))
    return morphism_from_images(s3, s3, [t, Permutation.identity(3)])


# -- construction -------------------------------------------------------------

def test_trivial_assignment_extends(s3):
    e = Permutation.identity(3)
    phi = morphism_from_images(s3, s3, [e, e])
    assert phi.is_trivial()


def test_valid_automorphism_from_images(s3):
    phi = morphism_from_images(s3, s3, [
        Permutation.from_cycles(3, (1, 2)),
        Permutation.from_cycles(3, (1, 3, 2)),
    ])
    assert phi.is_automorphism()


def test_order_obstruction_raises():
    z4 = build(cyclic(4))
    z3 = build(cyclic(3))
    with pytest.raises(NotAHomomorphism):
        morphism_from_images(z4, z3, [Permutation.from_cycles(3, (1, 2, 3))])


def test_image_must_live_in_target(s3):
    z3 = build(cyclic(3))
    outsider = Permutation.from_cycles(3, (1, 2))  # odd, not in Z3
    with pytest.raises(ValueError):
        morphism_from_images(z3, z3, [outsider])
    with pytest.raises(ValueError):
        morphism_from_images(s3, s3, [Permutation.identity(3)])  # wrong count


def test_bad_table_rejected(s3):
    table = [0] * 6
    table[1] = 1  # fixes one transposition, kills the rest: not a hom
    table[0] = 0
    with pytest.raises(NotAHomomorphism):
        Morphism(s3, s3, table)


# -- evaluate / compose / power -------------------------------------------------

def test_power_identity_and_collapse():
    z4 = build(cyclic(4))
    doubling = Morphism(z4, z4, [z4.power(i, 2) for i in range(4)])
    assert doubling.power(1) == doubling
    assert doubling.power(2).is_trivial()
    assert doubling.power(0) == identity_morphism(z4)


def test_compose_with_inverse_is_identity(s3):
    phi = morphism_from_images(s3, s3, [
        Permutation.from_cycles(3, (1, 3)),
        Permutation.from_cycles(3, (1, 2, 3)),
    ])
    assert phi.compose(phi.inverse()) == identity_morphism(s3)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "Z2xZ4"])
def test_composites_obey_the_homomorphism_law(name, small_groups, endos_of):
    # compose() and power() trust their verified factors; check the law.
    group = small_groups[name]
    for phi in endos_of(name):
        for psi in endos_of(name)[::3]:
            assert _verify_table(group, group, phi.compose(psi).table)
        assert _verify_table(group, group, phi.power(3).table)


# -- kernel / image / fixed points ----------------------------------------------

def test_identity_morphism_kernel_image(s3):
    phi = identity_morphism(s3)
    assert phi.kernel().order == 1
    assert phi.image().order == 6


def test_trivial_morphism_kernel_image(s3):
    phi = morphism_from_images(s3, s3,
                               [Permutation.identity(3)] * 2)
    assert phi.kernel().order == 6
    assert phi.image().order == 1


def test_sign_like_kernel_and_image(s3):
    phi = sign_like(s3)
    assert phi.kernel().order == 3
    assert phi.image().order == 2


def test_fixed_subgroup_of_inversion():
    z4 = build(cyclic(4))
    inversion = Morphism(z4, z4, [z4.inverse(i) for i in range(4)])
    fixed = inversion.fixed_subgroup()
    assert fixed.order == 2
    assert {z4.element_order(i) for i in fixed.indices} == {1, 2}


def test_fixed_point_free_examples(s3):
    trivial = morphism_from_images(s3, s3, [Permutation.identity(3)] * 2)
    assert trivial.is_fixed_point_free()
    assert not identity_morphism(s3).is_fixed_point_free()
    v4 = build(abelian(2, 2))
    cycler = next(
        phi for phi in enumerate_automorphisms(v4)
        if all(phi.table[i] != i for i in range(1, 4))
    )
    assert cycler.is_fixed_point_free()
    assert v4.element_order(cycler.table[1]) == 2


# -- class preservation -----------------------------------------------------------

def test_inner_automorphisms_preserve_classes(catalog_groups):
    for name in ("S3", "A4", "Q8", "SL(2,3)"):
        group = catalog_groups[name]
        classes = group.conjugacy_classes()
        for h in range(group.order):
            assert inner_automorphism(group, h).is_class_preserving(classes)


def test_conjugation_by_transposition_on_a4_swaps_cycle_classes():
    a4 = build(alternating(4))
    swap = Permutation.from_cycles(4, (1, 2))
    images = [swap * g * swap.inverse() for g in a4.generators]
    phi = morphism_from_images(a4, a4, images)
    assert phi.is_automorphism()
    assert not phi.is_class_preserving()


def test_identity_is_class_preserving(s3):
    assert identity_morphism(s3).is_class_preserving()


# -- enumeration ----------------------------------------------------------------

def brute_force_endomorphism_tables(group):
    """Oracle: try every generator-image combination and check the
    homomorphism law on every pair of elements."""
    n = group.order
    gens = group.small_generating_set()
    found = set()
    for combo in itertools.product(range(n), repeat=len(gens)):
        phi = {0: 0}
        for g, img in zip(gens, combo):
            phi[g] = img
        ok, changed = True, True
        while changed and ok:
            changed = False
            for x in list(phi):
                for g, img in zip(gens, combo):
                    y = group.product(x, g)
                    t = group.product(phi[x], img)
                    if y in phi:
                        if phi[y] != t:
                            ok = False
                            break
                    else:
                        phi[y] = t
                        changed = True
                if not ok:
                    break
        if not ok or len(phi) != n:
            continue
        table = tuple(phi[i] for i in range(n))
        if all(table[group.product(a, b)]
               == group.product(table[a], table[b])
               for a in range(n) for b in range(n)):
            found.add(table)
    return found


@pytest.mark.parametrize("defn,count", [
    (cyclic(2), 2),
    (symmetric(3), 10),
    (cyclic(4), 4),
])
def test_endomorphism_counts(defn, count):
    group = build(defn)
    endos = list(enumerate_endomorphisms(group))
    assert len(endos) == count
    assert len(set(endos)) == count


def test_endomorphisms_match_brute_force():
    for defn in (symmetric(3), cyclic(6), abelian(2, 2),
                 quaternion_dicyclic(2)):
        group = build(defn)
        mine = {phi.table for phi in enumerate_endomorphisms(group)}
        assert mine == brute_force_endomorphism_tables(group)


def test_z4_endomorphisms_are_the_multiplications():
    z4 = build(cyclic(4))
    tables = {phi.table for phi in enumerate_endomorphisms(z4)}
    expected = {
        tuple(z4.power(i, a) for i in range(4)) for a in range(4)
    }
    assert tables == expected


@pytest.mark.parametrize("defn,count", [
    (symmetric(3), 6),
    (cyclic(4), 2),
    (alternating(4), 24),
])
def test_automorphism_counts(defn, count):
    group = build(defn)
    autos = list(enumerate_automorphisms(group))
    assert len(autos) == count
    assert all(phi.is_automorphism() for phi in autos)


def test_automorphisms_are_the_bijective_endomorphisms(small_groups, endos_of):
    for name, group in small_groups.items():
        bijective = {phi.table for phi in endos_of(name)
                     if phi.is_automorphism()}
        enumerated = {phi.table
                      for phi in enumerate_automorphisms(group)}
        assert bijective == enumerated, name


def test_first_isomorphism_across_small_catalog(small_groups, endos_of):
    for name, group in small_groups.items():
        for phi in endos_of(name):
            assert phi.kernel().order * phi.image().order == group.order


def test_automorphism_count_is_multiple_of_inner_count(catalog_groups):
    for name in ("S3", "A4", "Q8", "D4", "M9", "SL(2,3)"):
        group = catalog_groups[name]
        inner = group.order // group.center().order
        assert len(list(enumerate_automorphisms(group))) % inner == 0


def test_quasisimple_endomorphisms_are_trivial_or_bijective(endos_of):
    for name in ("A5", "SL(2,5)"):
        for phi in endos_of(name):
            assert phi.is_trivial() or phi.is_automorphism()


def test_enumeration_is_deterministic(s3):
    first = [phi.table for phi in enumerate_endomorphisms(s3)]
    second = [phi.table for phi in enumerate_endomorphisms(s3)]
    assert first == second


def test_budget_exceeded():
    group = build(symmetric(4))
    with pytest.raises(BudgetExceeded):
        list(enumerate_endomorphisms(group, budget=50))
    with pytest.raises(BudgetExceeded):
        list(enumerate_automorphisms(group, budget=10))


# -- inner automorphisms ------------------------------------------------------------

def test_inner_automorphism_examples(s3):
    assert inner_automorphism(s3, 0) == identity_morphism(s3)
    q8 = build(quaternion_dicyclic(2))
    central = next(i for i in q8.center().indices if i != 0)
    assert inner_automorphism(q8, central) == identity_morphism(q8)
    t = s3.index_of(Permutation.from_cycles(3, (1, 2)))
    phi = inner_automorphism(s3, t)
    assert phi.table[t] == t
    assert phi.is_automorphism()


# -- kernel towers and induced maps ---------------------------------------------------

def test_iterated_kernel_examples(s3):
    assert identity_morphism(s3).iterated_kernel().order == 1
    z4 = build(cyclic(4))
    doubling = Morphism(z4, z4, [z4.power(i, 2) for i in range(4)])
    assert doubling.iterated_kernel().order == 4
    phi = sign_like(s3)
    assert phi.iterated_kernel().order == 3


def test_induced_on_quotient(s3):
    phi = sign_like(s3)
    tower = phi.iterated_kernel()
    induced = phi.induced_on_quotient(tower)
    assert induced.source.order == 2
    assert induced.is_automorphism()


def test_induced_on_trivial_subgroup_mirrors_the_morphism(s3):
    from twistspec.twisted import reidemeister_number
    phi = sign_like(s3)
    induced = phi.induced_on_quotient(s3.trivial_subgroup())
    assert induced.source.order == 6
    assert reidemeister_number(induced) == reidemeister_number(phi)
    assert induced.kernel().order == phi.kernel().order


def test_induced_requires_invariance(s3):
    # the rotation subgroup is not invariant under an automorphism moving it?
    # it is characteristic; use a non-invariant subgroup of Z2xZ2 instead
    v4 = build(abelian(2, 2))
    cycler = next(
        phi for phi in enumerate_automorphisms(v4)
        if all(phi.table[i] != i for i in range(1, 4))
    )
    sub = v4.subgroup([0, 1])
    with pytest.raises(ValueError):
        cycler.induced_on_quotient(sub)


def test_greedy_generating_set_on_m9():
    group = build(m9())
    gens = group.small_generating_set()
    assert len(gens) <= 3
    assert len(group.subgroup_closure(gens)) == group.order


def test_morphism_images_accept_indices():
    z6 = build(cyclic(6))
    phi = morphism_from_images(z6, z6, [z6.power(1, 5)])
    assert phi.is_automorphism()


def test_generator_images_follow_declared_generators():
    group = build(sl2(3))
    phi = identity_morphism(group)
    assert phi.generator_images == group.generator_indices()
