import itertools

import pytest

import oracles
from oracles import identity_morphism
from twistspec.errors import BudgetExceeded, NotAHomomorphism
from twistspec.morphism import (Morphism, inner_automorphism,
                                morphism_from_images, weighted_sweep)
from twistspec.perm import Permutation
from twistspec.catalog import (abelian, alternating, build, cyclic,
                               holomorph_cyclic, quaternion_dicyclic,
                               shipped_catalog, sl2, symmetric, m9)


@pytest.fixture(scope="module")
def s3():
    return build(symmetric(3))


def cycler_of_v4():
    """The automorphism of Z2xZ2 that cycles its three involutions."""
    v4 = build(abelian(2, 2))
    return v4, next(phi for phi in oracles.morphisms(v4, True)
                    if all(phi.table[i] != i for i in range(1, 4)))


def sign_like(s3):
    """S3 -> S3 with image {id, (1 2)}: kernel is the rotation subgroup."""
    t = Permutation.from_cycles(3, (1, 2))
    return morphism_from_images(s3, [t, Permutation.identity(3)])


# -- construction -------------------------------------------------------------

def test_trivial_assignment_extends(s3):
    e = Permutation.identity(3)
    phi = morphism_from_images(s3, [e, e])
    assert phi.is_trivial()


def test_valid_automorphism_from_images(s3):
    phi = morphism_from_images(s3, [
        Permutation.from_cycles(3, (1, 2)),
        Permutation.from_cycles(3, (1, 3, 2)),
    ])
    assert phi.is_automorphism()


def test_morphism_call_and_repr(s3):
    t = Permutation.from_cycles(3, (1, 2))
    phi = morphism_from_images(s3, [t, Permutation.identity(3)])
    assert [phi(x) for x in range(s3.order)] == list(phi.table)
    assert phi(s3.index_of(t)) == s3.index_of(t)
    assert repr(phi) == "Morphism(gens -> [(1 2), ()])"


def test_order_obstruction_raises(s3):
    # A transposition (order 2) cannot map to a 3-cycle (order 3).
    three_cycle = Permutation.from_cycles(3, (1, 2, 3))
    transposition, rotation = s3.generators
    assert s3.element_order(s3.index_of(transposition)) == 2
    with pytest.raises(NotAHomomorphism):
        morphism_from_images(s3, [three_cycle, rotation])


def test_image_must_live_in_target(s3):
    z3 = build(cyclic(3))
    outsider = Permutation.from_cycles(3, (1, 2))  # odd, not in Z3
    with pytest.raises(ValueError):
        morphism_from_images(z3, [outsider])
    with pytest.raises(ValueError):
        morphism_from_images(s3, [Permutation.identity(3)])  # wrong count
    for bad in (3, -1, True, 1.0):
        with pytest.raises(ValueError, match=f"image index {bad} "):
            morphism_from_images(z3, [bad])


def test_bad_table_rejected(s3):
    table = [0] * 6
    table[1] = 1  # fixes one transposition, kills the rest: not a hom
    table[0] = 0
    with pytest.raises(NotAHomomorphism):
        Morphism(s3, table)
    with pytest.raises(NotAHomomorphism):
        Morphism(s3, [1] * 6)  # the identity must map to the identity


def test_table_entries_must_index_the_target(s3):
    for bad in ([0, 1, 0, 1, 0, 6], [0, 1, 0, 1, 0, -1]):
        with pytest.raises(ValueError, match="outside the group"):
            Morphism(s3, bad)
    with pytest.raises(ValueError, match="length"):
        Morphism(s3, [0, 1])


# -- evaluate / compose -----------------------------------------------------------

def test_compose_identity_and_collapse():
    z4 = build(cyclic(4))
    doubling = Morphism(z4, [oracles.power(z4, i, 2) for i in range(4)])
    assert doubling.compose(identity_morphism(z4)) == doubling
    assert identity_morphism(z4).compose(doubling) == doubling
    assert doubling.compose(doubling).is_trivial()


def test_compose_rejects_endomorphisms_of_different_groups(s3):
    z4 = build(cyclic(4))
    with pytest.raises(ValueError, match="not composable"):
        identity_morphism(s3).compose(identity_morphism(z4))
    with pytest.raises(ValueError, match="not composable"):
        identity_morphism(z4).compose(identity_morphism(s3))


def test_compose_with_inverse_is_identity(s3):
    phi = morphism_from_images(s3, [
        Permutation.from_cycles(3, (1, 3)),
        Permutation.from_cycles(3, (1, 2, 3)),
    ])
    inverse = [0] * s3.order
    for x, t in enumerate(phi.table):
        inverse[t] = x
    assert phi.compose(Morphism(s3, inverse)) == identity_morphism(s3)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "Z2xZ4"])
def test_composites_obey_the_homomorphism_law(name, small_groups, endos_of):
    # compose() trusts its verified factors; check the law on every pair of
    # elements, by permutation products rather than the search's extension.
    group = small_groups[name]
    products = oracles.product_table(group)
    for phi in endos_of(name):
        for psi in endos_of(name)[::3]:
            assert oracles.obeys_homomorphism_law(products,
                                                  phi.compose(psi).table)
        assert oracles.obeys_homomorphism_law(
            products, phi.compose(phi).compose(phi).table)


# -- kernel / image / fixed points, read off the table -----------------------------

def kernel_and_image_orders(phi):
    return phi.table.count(0), len(set(phi.table))


def test_identity_morphism_kernel_image(s3):
    assert kernel_and_image_orders(identity_morphism(s3)) == (1, 6)


def test_trivial_morphism_kernel_image(s3):
    phi = morphism_from_images(s3, [Permutation.identity(3)] * 2)
    assert kernel_and_image_orders(phi) == (6, 1)


def test_sign_like_kernel_and_image(s3):
    assert kernel_and_image_orders(sign_like(s3)) == (3, 2)


def test_fixed_subgroup_of_inversion():
    z4 = build(cyclic(4))
    inversion = Morphism(z4, [z4.inverse(i) for i in range(4)])
    fixed = [x for x, t in enumerate(inversion.table) if t == x]
    assert inversion.fixed_point_count() == len(fixed) == 2
    assert {z4.element_order(i) for i in fixed} == {1, 2}


def test_fixed_point_free_examples(s3):
    # Fixed-point-free: the identity is the only fixed element.
    trivial = morphism_from_images(s3, [Permutation.identity(3)] * 2)
    assert trivial.fixed_point_count() == 1
    assert identity_morphism(s3).fixed_point_count() == 6
    v4, cycler = cycler_of_v4()
    assert cycler.fixed_point_count() == 1
    assert v4.element_order(cycler.table[1]) == 2


# -- class preservation -----------------------------------------------------------

def test_inner_automorphisms_preserve_classes(catalog_groups):
    for name in ("S3", "A4", "Q8", "SL(2,3)"):
        group = catalog_groups[name]
        classes = group.conjugacy_classes()
        for h in range(group.order):
            assert oracles.is_class_preserving(
                inner_automorphism(group, h), classes)


def test_conjugation_by_transposition_on_a4_swaps_cycle_classes():
    a4 = build(alternating(4))
    swap = Permutation.from_cycles(4, (1, 2))
    images = [swap * g * swap.inverse() for g in a4.generators]
    phi = morphism_from_images(a4, images)
    assert phi.is_automorphism()
    assert not oracles.is_class_preserving(phi)


def test_identity_is_class_preserving(s3):
    assert oracles.is_class_preserving(identity_morphism(s3))


# -- the sweep, expanded into whole Inn(G)-orbits -----------------------------------

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
    endos = oracles.morphisms(group)
    assert len(endos) == count
    assert len(set(endos)) == count


def test_endomorphisms_match_brute_force():
    for defn in (symmetric(3), cyclic(6), abelian(2, 2),
                 quaternion_dicyclic(2)):
        group = build(defn)
        mine = set(oracles.every_morphism(group))
        assert mine == brute_force_endomorphism_tables(group)


def test_z4_endomorphisms_are_the_multiplications():
    z4 = build(cyclic(4))
    tables = set(oracles.every_morphism(z4))
    expected = {
        tuple(oracles.power(z4, i, a) for i in range(4)) for a in range(4)
    }
    assert tables == expected


@pytest.mark.parametrize("defn,count", [
    (symmetric(3), 6),
    (cyclic(4), 2),
    (alternating(4), 24),
])
def test_automorphism_counts(defn, count):
    group = build(defn)
    autos = oracles.morphisms(group, True)
    assert len(autos) == count
    assert all(phi.is_automorphism() for phi in autos)


def test_automorphisms_are_the_bijective_endomorphisms(small_groups, endos_of):
    for name, group in small_groups.items():
        bijective = {phi.table for phi in endos_of(name)
                     if phi.is_automorphism()}
        enumerated = set(oracles.every_morphism(group, True))
        assert bijective == enumerated, name


def test_first_isomorphism_across_small_catalog(small_groups, endos_of):
    for name, group in small_groups.items():
        for phi in endos_of(name):
            kernel, image = kernel_and_image_orders(phi)
            assert kernel * image == group.order


def test_is_automorphism_is_a_trivial_kernel(small_groups, endos_of):
    # An endomorphism of a finite group is bijective iff its kernel is 1.
    for name, group in small_groups.items():
        for phi in endos_of(name):
            assert (phi.is_automorphism()
                    == (len(set(phi.table)) == group.order)), (name, phi)


def test_automorphism_count_is_multiple_of_inner_count(catalog_groups):
    for name in ("S3", "A4", "Q8", "D4", "M9", "SL(2,3)"):
        group = catalog_groups[name]
        inner = group.order // group.center().order
        assert len(oracles.every_morphism(group, True)) % inner == 0


def test_quasisimple_endomorphisms_are_trivial_or_bijective(endos_of):
    for name in ("A5", "SL(2,5)"):
        for phi in endos_of(name):
            assert phi.is_trivial() or phi.is_automorphism()


def test_enumeration_is_deterministic(s3):
    first = [(phi.table, w) for phi, w in weighted_sweep(s3)]
    second = [(phi.table, w) for phi, w in weighted_sweep(s3)]
    assert first == second


def test_budget_exceeded():
    group = build(symmetric(4))
    with pytest.raises(BudgetExceeded):
        list(weighted_sweep(group, budget=50))
    with pytest.raises(BudgetExceeded):
        list(weighted_sweep(group, automorphisms=True, budget=10))


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


def test_inner_automorphism_conjugates_by_its_element(catalog_groups):
    # x -> h x h^-1, checked on the permutations themselves.
    for name in ("S3", "Q8", "SL(2,3)"):
        group = catalog_groups[name]
        elements = group.elements
        for h, perm in enumerate(elements):
            table = inner_automorphism(group, h).table
            assert all(elements[table[x]] == perm * g * perm.inverse()
                       for x, g in enumerate(elements))


# -- kernel towers and induced maps ---------------------------------------------------

def test_iterated_kernel_examples(s3):
    assert identity_morphism(s3).iterated_kernel().order == 1
    z4 = build(cyclic(4))
    doubling = Morphism(z4, [oracles.power(z4, i, 2) for i in range(4)])
    assert doubling.iterated_kernel().order == 4
    phi = sign_like(s3)
    assert phi.iterated_kernel().order == 3


def test_induced_on_quotient(s3):
    # The oracle's induced map on S3/A3: injective, as the kernel tower
    # promises, and a verified homomorphism.
    phi = sign_like(s3)
    tower = phi.iterated_kernel()
    induced = oracles.induced_on_quotient(phi, tower)
    assert induced.group.order == 2
    assert induced.is_automorphism()


def test_induced_on_trivial_subgroup_mirrors_the_morphism(s3):
    from twistspec.twisted import reidemeister_number
    phi = sign_like(s3)
    induced = oracles.induced_on_quotient(phi, s3.trivial_subgroup())
    assert induced.group.order == 6
    assert reidemeister_number(induced) == reidemeister_number(phi)
    assert induced.table.count(0) == phi.table.count(0)


def test_induced_requires_invariance(s3):
    # The cycler of Z2xZ2 moves each subgroup of order 2.
    v4, cycler = cycler_of_v4()
    sub = v4.subgroup([0, 1])
    with pytest.raises(ValueError):
        oracles.induced_on_quotient(cycler, sub)


def test_greedy_generating_set_on_m9():
    group = build(m9())
    gens = group.small_generating_set()
    assert len(gens) <= 3
    assert len(oracles.subgroup_closure(group, gens)) == group.order


def test_morphism_images_accept_indices():
    z6 = build(cyclic(6))
    phi = morphism_from_images(z6, [oracles.power(z6, 1, 5)])
    assert phi.is_automorphism()


def test_generator_images_follow_declared_generators():
    group = build(sl2(3))
    phi = identity_morphism(group)
    assert phi.generator_images == group.generator_indices()


# -- the depth-first search against the flat grid --------------------------------------

# The catalog groups of order <= 24 include Z2xZ2xZ4.
GRID_CASES = [defn for defn in shipped_catalog()
              if defn.expected["order"] <= 24] + [holomorph_cyclic(15)]


@pytest.mark.parametrize("defn", GRID_CASES, ids=lambda defn: defn.name)
def test_search_matches_the_flat_grid(defn):
    group = build(defn)
    table = oracles.product_table(group)
    gens = group.small_generating_set()
    for automorphisms in (False, True):
        assert (oracles.every_morphism(group, automorphisms)
                == sorted(oracles.morphism_grid(table, gens, automorphisms)))

