"""Slow reference definitions for the group and morphism layers.

The group answers, all quadratic in |G|, are computed from a product table
built by composing permutations (``idx[p * q]``), and the cosets from such
products taken one at a time, so none of it shares code with the
generator-action algorithms in ``twistspec``; ``obeys_homomorphism_law``
checks a table on every pair of elements off that product table.
``every_morphism`` lists every endomorphism by expanding the weighted
sweep's representatives into their Inn(G)-orbits, and ``battery_over`` runs
the theorem battery over such a list one morphism at a time.  ``tally``
folds the weighted sweep's Morphisms through ``count``, the spectra's
counters computed the slow way, by the fixed-class count, the orbit count
or both (``METHODS``).
``quotient`` builds G/N as a permutation group on the left cosets of N,
which ``twistspec`` itself never does, and
``induced_on_quotient`` the map an endomorphism induces there;
``reduction_orbits_on_g`` counts that map's twisted classes on all of G.
``assert_quotient_classes`` holds the classes of G/N that the group keeps
for N, a partition of G, to the preimages of the quotient's conjugacy
classes.  ``assert_twisted_classes`` holds the package's twisted classes,
the orbit pass the battery runs, to ``twisted_classes`` on the product
table, and ``assert_quotient_count`` the battery's count on G/N to both
quotient oracles; ``twisted_map_images`` reads an endomorphism's
generator images back off its twisted maps, for spies on ``orbits``.
``morphism_battery`` is the theorem battery built on Morphisms, one per
representative of the weighted sweep, with every inner twist composed as a
full table; ``miscounted_fixed_classes`` injects a fault that both
batteries see, and ``assert_battery_matches`` compares them.
``structure_flags_by_closures`` decides the structure flags by normal
closures alone, and ``assert_structure_flags`` holds ``structure_flags``,
which reads certificates first, to it.
``small_generating_set`` is the search's greedy generating set with every
round's candidate scan run to the end, and ``random_generating_sets``
declares small abelian groups by seeded random elements, mostly
dependent, for it.  ``reference_closure`` is the breadth-first search
that materializes a group, multiplying with ``p * g`` one ``Permutation``
at a time, and ``assert_closure_matches`` holds ``closure`` to it element
by element.
The suites compare the fast paths with these on small groups.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest

import twistspec.morphism as morphism_mod
import twistspec.spectra as spectra_mod
import twistspec.twisted as twisted_mod
from twistspec import catalog
from twistspec.errors import OrderCapExceeded
from twistspec.group import (DEFAULT_ORDER_CAP, _Budget,
                             closure as materialize, orbits)
from twistspec.morphism import (DEFAULT_PRODUCT_BUDGET, Morphism,
                                weighted_sweep)
from twistspec.perm import Permutation
from twistspec.spectra import BatteryCheck
from twistspec.twisted import (reduction_check, reidemeister_number,
                               twisted_classes as twisted_partition)

METHODS = ("fixed-classes", "orbits", "checked")


def count(phi, method):
    """R(phi) by ``method``: the fixed-class count, the orbit count, or,
    for ``checked``, both, which must agree."""
    assert method in METHODS, method
    if method == "orbits":
        return twisted_partition(phi).count
    fixed = reidemeister_number(phi)
    if method == "checked":
        assert twisted_partition(phi).count == fixed, phi
    return fixed


def product_table(group):
    """``table[i][j]`` is the index of ``elements[i] * elements[j]``."""
    idx = group.index_of
    return [[idx(p * q) for q in group.elements] for p in group.elements]


def obeys_homomorphism_law(table, phi):
    """``phi(x y) = phi(x) phi(y)`` for every pair of elements, read off
    the product ``table``."""
    return all(phi[row[y]] == table[phi[x]][phi[y]]
               for x, row in enumerate(table) for y in range(len(table)))


def inverses(table):
    return [row.index(0) for row in table]


def reference_closure(degree, generators, order_cap=DEFAULT_ORDER_CAP):
    """The breadth-first search from the identity, generators in list order,
    each product a ``Permutation`` made by ``p * g``, under the same order
    cap.  Returns the elements, their index, the Schreier tree as (parent,
    generator position) pairs and each generator's column
    ``x -> index(x * g)``."""
    if degree > order_cap:
        raise OrderCapExceeded(
            f"degree {degree} exceeds order cap {order_cap}")
    identity = Permutation.identity(degree)
    elements, index, tree = [identity], {identity: 0}, []
    right = [[] for _ in generators]
    for head, p in enumerate(elements):
        for s, g in enumerate(generators):
            q = p * g
            if q not in index:
                if len(elements) >= order_cap:
                    raise OrderCapExceeded(
                        f"group exceeds order cap {order_cap}")
                index[q] = len(elements)
                elements.append(q)
                tree.append((head, s))
            right[s].append(index[q])
    return elements, index, tree, right


def assert_closure_matches(degree, generators):
    """``closure`` against ``reference_closure``: the same elements, all
    of them Permutations, in the same order, the same index, the same
    Schreier tree and the same declared generators' columns.  At
    ``order_cap = |G| - 1`` both raise OrderCapExceeded with the same
    message; at |G| neither does, unless the degree exceeds |G|.  Returns
    the group."""
    group = materialize(degree, generators)
    elements, index, tree, right = reference_closure(degree, generators)
    assert group.elements == elements
    assert group._index == index
    assert all(type(p) is Permutation for p in group._index)
    assert all(type(p) is Permutation for p in group.elements)
    assert [group.column(g) for g in group.generator_indices()] == right
    assert group._tree == [(p, right[s]) for p, s in tree]
    messages = []
    for build in (materialize, reference_closure):
        with pytest.raises(OrderCapExceeded) as caught:
            build(degree, generators, order_cap=group.order - 1)
        messages.append(str(caught.value))
        if degree <= group.order:
            build(degree, generators, order_cap=group.order)
    assert messages[0] == messages[1]
    return group


def assert_element_tables(group, table):
    """``group``'s inverses and element orders against the product table:
    x^-1 is the y with table[x][y] = 0, and x's order the length of its
    powers' walk back to the identity."""
    assert group.inverses() == inverses(table)
    assert group.element_orders() == element_orders(table)


def closure(table, seeds):
    """Indices of the subgroup generated by ``seeds``, sorted."""
    members = {0}
    frontier = {0}
    while frontier:
        frontier = {table[x][s] for x in frontier for s in seeds} - members
        members |= frontier
    return sorted(members)


def subgroup_closure(group, seeds):
    """Indices of the subgroup of ``group`` generated by ``seeds``, sorted:
    everything the identity reaches by right multiplication by the seeds."""
    columns = [group.column(y) for y in seeds]
    members = {0}
    frontier = [0]
    for x in frontier:
        for column in columns:
            if column[x] not in members:
                members.add(column[x])
                frontier.append(column[x])
    return tuple(sorted(members))


def small_generating_set(group):
    """``FiniteGroup.small_generating_set`` with every round's candidate
    scan run to the end: the declared generators without duplicates and
    the identity (the identity alone for the trivial group) when the
    generators commute and their orders multiply to |G|, or when they do
    not commute and at most three remain; else the first element of
    largest order, then each round the first element whose closure with
    the chosen ones is strictly the largest, among those that multiply its
    size by their order when the generators commute."""
    gens = group.generators
    abelian = all(g * h == h * g for g in gens for h in gens)
    orders = [p.order() for p in group.elements]
    declared = list(dict.fromkeys(g for g in group.generator_indices() if g))
    if (math.prod(orders[g] for g in declared) == group.order if abelian
            else len(declared) <= 3):
        return tuple(declared) or (0,)
    chosen = [max(range(1, group.order), key=orders.__getitem__)]
    found = subgroup_closure(group, chosen)
    while len(found) < group.order:
        best, best_found = None, found
        for cand in sorted(set(range(group.order)) - set(found)):
            grown = subgroup_closure(group, [*chosen, cand])
            if len(grown) > len(best_found) and (
                    not abelian or len(grown) == len(found) * orders[cand]):
                best, best_found = cand, grown
        chosen.append(best)
        found = best_found
    return tuple(chosen)


def random_generating_sets(count=4):
    """``count`` definitions each of Z4 x Z2, Z2 x Z2 x Z4 and
    Z2^3 x Z4, each declared by 2-4 of its elements drawn with a fixed
    seed per group and kept when they generate it; most such sets are
    dependent."""
    found = []
    for seed, orders in enumerate([(4, 2), (2, 2, 4), (2, 2, 2, 4)]):
        group = catalog.build(catalog.abelian(*orders))
        rng = random.Random(seed)
        for k in range(count):
            picks = []
            while len(subgroup_closure(group, picks)) < group.order:
                picks = rng.sample(range(1, group.order), rng.randint(2, 4))
            found.append(catalog.GroupDefinition(
                f"{'x'.join(f'Z{n}' for n in orders)}-{k}", group.degree,
                [group.elements[i].to_one_based() for i in picks]))
    return found


def is_class_preserving(phi, classes=None):
    """``phi`` maps every conjugacy class to itself (checked on
    representatives)."""
    if classes is None:
        classes = phi.group.conjugacy_classes()
    return all(classes.class_of[phi.table[r]] == c
               for c, r in enumerate(classes.representatives))


def conjugacy_classes(table):
    """(class_of, representatives, sizes), conjugating by every element and
    numbering classes by their smallest member."""
    return twisted_classes(table, range(len(table)))


def center(table):
    n = len(table)
    return [i for i in range(n)
            if all(table[i][j] == table[j][i] for j in range(n))]


def commutator_subgroup(table, left, right):
    """The subgroup generated by ``[a, b]`` for all ``a`` in ``left`` and
    ``b`` in ``right``, as ``(ab)(ba)^-1``."""
    inv = inverses(table)
    return closure(table, {table[table[a][b]][inv[table[b][a]]]
                           for a in left for b in right})


def derived_subgroup(table):
    everything = range(len(table))
    return commutator_subgroup(table, everything, everything)


def is_nilpotent(table):
    """The lower central series, each term from all pairs, reaches 1."""
    everything = list(range(len(table)))
    current = everything
    while len(current) > 1:
        nxt = commutator_subgroup(table, everything, current)
        if len(nxt) == len(current):
            return False
        current = nxt
    return True


def is_simple(table, classes):
    """Every nontrivial class generates the whole group."""
    class_of, reps, _ = classes
    n = len(table)
    return n > 1 and all(
        len(closure(table, [x for x in range(n) if class_of[x] == c])) == n
        for c in range(1, len(reps)))


def is_subgroup(table, members):
    """Identity, inverses and every product of two members."""
    flags = set(members)
    inv = inverses(table)
    return (0 in flags and all(inv[a] in flags for a in flags)
            and all(table[a][b] in flags for a in flags for b in flags))


def twisted_classes(table, phi):
    """(class_of, representatives, sizes) of ``g ~ h g phi(h)^-1``, sweeping
    every ``h`` and numbering classes by their smallest member."""
    n = len(table)
    inv = inverses(table)
    class_of = [-1] * n
    reps, sizes = [], []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        reps.append(g)
        orbit = {table[table[h][g]][inv[phi[h]]] for h in range(n)}
        for c in orbit:
            class_of[c] = len(reps) - 1
        sizes.append(len(orbit))
    return class_of, reps, sizes


def left_cosets(group, members):
    """(coset_of, representatives): ``e`` starts a coset ``{e x : x in H}``
    unless an earlier one holds it.  Products are composed permutations."""
    elements, idx = group.elements, group.index_of
    coset_of = [-1] * group.order
    reps = []
    for e, p in enumerate(elements):
        if coset_of[e] < 0:
            reps.append(e)
            for x in members:
                coset_of[idx(p * elements[x])] = len(reps) - 1
    return coset_of, reps


def coset_permutations(group, members):
    """Each element's action on the left cosets of a normal subgroup:
    ``perm[e][i]`` is the coset of ``e * reps[i]``."""
    elements, idx = group.elements, group.index_of
    coset_of, reps = left_cosets(group, members)
    return [Permutation(coset_of[idx(p * elements[r])] for r in reps)
            for p in elements]


@functools.cache
def _quotient(group, members):
    elements, idx = group.elements, group.index_of
    inside = set(members)
    # Closed under conjugation by each generator of G, hence by G.
    if any(idx(g * elements[h] * g.inverse()) not in inside
           for g in group.generators for h in members):
        raise ValueError("subgroup is not normal")
    perms = coset_permutations(group, members)
    quotient_group = materialize(
        perms[0].degree, [perms[g] for g in group.generator_indices()],
        order_cap=group.order)
    projection = tuple(quotient_group.index_of(p) for p in perms)
    assert quotient_group.order * len(members) == group.order
    assert [x for x, t in enumerate(projection) if t == 0] == list(members)
    return quotient_group, projection


def quotient(group, sub):
    """``(quotient_group, projection)`` for a normal subgroup ``sub``: G/N
    as the permutation group of G acting on the left cosets of N, and
    ``projection[e]`` the index there of ``e``'s coset permutation.  Raises
    ValueError when ``sub`` is not normal.  Built once per kernel, from
    O(|G| * [G:N]) permutation products."""
    return _quotient(group, tuple(sub.indices))


def induced_on_quotient(phi, sub):
    """The endomorphism ``phi`` induces on G/N, for a normal ``sub`` with
    phi(N) in N, verified as a homomorphism on construction.  Raises
    ValueError when ``sub`` is not invariant under ``phi``."""
    if any(phi.table[x] not in sub for x in sub.indices):
        raise ValueError("subgroup is not invariant under the morphism")
    quotient_group, projection = quotient(phi.group, sub)
    induced = [-1] * quotient_group.order
    for e, c in enumerate(projection):
        t = projection[phi.table[e]]
        if induced[c] < 0:
            induced[c] = t
        assert induced[c] == t, "induced map is not well defined"
    return Morphism(quotient_group, induced)


def quotient_is_simple(group, sub):
    """G/N is simple, read from the product table of ``quotient``."""
    table = product_table(quotient(group, sub)[0])
    return is_simple(table, conjugacy_classes(table))


def structure_flags_by_closures(group):
    """The structure flags decided by normal closures alone, without the
    certificates that ``structure_flags`` reads first.

    G' is the normal closure of the declared generators' commutators, here
    composed as permutations.  An abelian group is simple iff |G| is prime;
    otherwise G must be perfect and G/1 simple.  G/N is simple (N = 1, or
    N = Z(G) for the quasisimple flag) when N != G and every class
    representative outside N normally generates G together with N.  The
    abelian and nilpotent flags are the group's own."""
    n, gens = group.order, group.generators
    commutators = [group.index_of(y.inverse() * s.inverse() * y * s)
                   for y in gens for s in gens]
    derived = group.normal_closure(commutators).order

    def simple_modulo(sub):
        return sub.order < n and all(
            group.normal_closure([x, *sub.generators]).order == n
            for x in group.conjugacy_classes().representatives
            if x not in sub)

    perfect = derived == n
    if derived == 1:
        simple = n > 1 and all(n % d for d in range(2, n))
    else:
        simple = perfect and simple_modulo(group.trivial_subgroup())
    center = group.center()
    return {
        "abelian": group.is_abelian(),
        "nilpotent": group.is_nilpotent(),
        "perfect": perfect,
        "simple": simple,
        "quasisimple": perfect and (simple if center.is_trivial()
                                    else simple_modulo(center)),
    }


def assert_structure_flags(group):
    """``structure_flags``, decided by certificates where it can, against
    ``structure_flags_by_closures``.  Returns the flags."""
    flags = spectra_mod.structure_flags(group)
    assert flags == structure_flags_by_closures(group)
    return flags


def reduced_count(phi, method="fixed-classes"):
    """R of the map ``phi`` induces on G/N, N the union of the kernels of
    the powers of ``phi`` (found one power at a time)."""
    group = phi.group
    sub = group.subgroup(iterated_kernel(phi.table))
    return count(induced_on_quotient(phi, sub), method)


def reduction_orbits_on_g(phi):
    """R of the map ``phi`` induces on G/N, N the stabilized kernel union
    found one power at a time, counted on all of G: the orbits of the
    twisted maps g -> s^-1 g phi(s) together with right multiplication by
    N's generators are the preimages of the induced map's twisted classes."""
    group = phi.group
    sub = group.subgroup(iterated_kernel(phi.table))
    maps = [group.column(y) for y in sub.generators]
    for s in group.generator_indices():
        column = group.column(phi.table[s])
        maps.append([column[x] for x in group.row(group.inverse(s))])
    return orbits(group.order, maps).count


def assert_quotient_classes(group, sub):
    """``FiniteGroup.quotient_classes`` for a normal ``sub`` against
    ``quotient``: the entry holds N, class 0 is N, and each class, whose
    smallest member is its representative, is the preimage of the
    conjugacy class of G/N that holds its representative's image, read off
    the quotient's product table."""
    cached, classes = group.quotient_classes(tuple(sub.indices))
    assert cached.indices == tuple(sub.indices)
    quotient_group, projection = quotient(group, sub)
    class_of = conjugacy_classes(product_table(quotient_group))[0]
    image_class = [class_of[t] for t in projection]
    members = [[] for _ in classes.representatives]
    for x, c in enumerate(classes.class_of):
        members[c].append(x)
    assert members[0] == list(sub.indices)
    assert len(set(class_of)) == classes.count
    for r, size, found in zip(classes.representatives, classes.sizes,
                              members):
        want = [x for x, c in enumerate(image_class)
                if c == image_class[r]]
        assert (found, r, size) == (want, want[0], len(want))


def assert_twisted_classes(phi, table):
    """The package's ``twisted_classes(phi)``, ``orbits`` over the twisted
    maps as the battery runs it, against ``twisted_classes`` swept on the
    product ``table``: the same labels, representatives and sizes."""
    partition = twisted_partition(phi)
    assert (list(partition.class_of), list(partition.representatives),
            list(partition.sizes)) == twisted_classes(table, phi.table)


def twisted_map_images(group, maps):
    """The generator images of the endomorphism whose twisted maps are
    ``maps``, as ``orbits`` receives them: x -> s^-1 x c sends s to its
    image c."""
    return tuple(image[s] for image, s in zip(maps, group.generator_indices()))


def assert_quotient_count(phi):
    """``twisted._quotient_count`` on ``phi`` against
    ``reduction_orbits_on_g`` and, for a nontrivial kernel tower N, R of
    ``induced_on_quotient``.  The same count, ``_fixed_count``, run on the
    classes of G/G' that ``quotient_classes`` keeps for G', is held to the
    twisted classes of the map induced on the oracle's G/G': G' is normal,
    phi(G') lies in G', and G/G' is abelian, so the classes phi fixes there
    number R, whether or not the induced map is injective.  Returns the
    quotient count."""
    group, table = phi.group, phi.table
    reduced = twisted_mod._quotient_count(group, table)
    assert reduced == reduction_orbits_on_g(phi)
    tower = phi.iterated_kernel()
    if not tower.is_trivial():
        assert reduced == reidemeister_number(
            induced_on_quotient(phi, tower))
    derived = group.derived_subgroup()
    if 1 < derived.order < group.order:
        classes = group.quotient_classes(derived.indices)[1]
        fixed = twisted_mod._fixed_count(table, classes, False)
        assert fixed == twisted_partition(
            induced_on_quotient(phi, derived)).count
    return reduced


def inner_automorphism(table, c):
    """``g -> c g c^-1`` as an index table."""
    inv = inverses(table)
    return [table[table[c][g]][inv[c]] for g in range(len(table))]


def power(group, i, exponent):
    """The index of element ``i`` raised to ``exponent >= 0``, by repeated
    products along ``i``'s row."""
    row = group.row(i)
    acc = 0
    for _ in range(exponent):
        acc = row[acc]
    return acc


def element_orders(table):
    orders = []
    for x in range(len(table)):
        k, y = 1, x
        while y:
            y = table[y][x]
            k += 1
        orders.append(k)
    return orders


def _extend(table, plan, gens, images):
    """The table of the homomorphism sending ``gens`` to ``images``, or
    None; ``plan`` lists the elements in BFS order over ``gens``."""
    phi = [-1] * len(table)
    phi[0] = 0
    for x in plan:
        for g, c in zip(gens, images):
            y, t = table[x][g], table[phi[x]][c]
            if phi[y] < 0:
                phi[y] = t
            elif phi[y] != t:
                return None
    return tuple(phi)


def morphism_grid(table, gens, automorphisms):
    """Every endomorphism (automorphism) table, from the flat grid of
    generator images.

    The images of ``gens`` range over ``itertools.product`` of their pools
    (image order divides the generator's order; for automorphisms, equal
    order and class size); each full tuple is extended along a BFS over
    ``gens`` with every (element, generator) pair checked.  Automorphism
    tuples must first pass the prefix prune: each prefix of images
    generates a subgroup of the same order as that prefix of ``gens``.
    """
    n = len(table)
    orders = element_orders(table)
    if automorphisms:
        class_of, _, sizes = conjugacy_classes(table)
        pools = [[x for x in range(n) if orders[x] == orders[g]
                  and sizes[class_of[x]] == sizes[class_of[g]]]
                 for g in gens]
    else:
        pools = [[x for x in range(n) if orders[g] % orders[x] == 0]
                 for g in gens]
    plan, seen = [0], {0}
    for x in plan:
        for g in gens:
            y = table[x][g]
            if y not in seen:
                seen.add(y)
                plan.append(y)
    prefix_orders = {}

    def prefix_order(images):
        if images not in prefix_orders:
            prefix_orders[images] = len(closure(table, images))
        return prefix_orders[images]

    want = [prefix_order(tuple(gens[:j + 1])) for j in range(len(gens))]
    found = []
    for images in itertools.product(*pools):
        if automorphisms and any(prefix_order(images[:j + 1]) != want[j]
                                 for j in range(len(gens))):
            continue
        phi = _extend(table, plan, gens, images)
        if phi is not None:
            found.append(phi)
    return found


def iterated_kernel(phi):
    """The union of the kernels of phi, phi^2, ... as sorted indices, taking
    one power at a time until the kernel stops growing."""
    power = list(phi)
    kernel = [x for x, t in enumerate(power) if t == 0]
    while True:
        power = [phi[t] for t in power]
        grown = [x for x, t in enumerate(power) if t == 0]
        if grown == kernel:
            return kernel
        kernel = grown


def every_morphism(group, automorphisms=False):
    """Every endomorphism (automorphism) table of ``group``, sorted.

    Each representative of ``weighted_sweep`` is expanded into its
    Inn(G)-orbit, the tables ``[conj_h[t] for t in phi.table]``: the
    closure of ``phi`` under conjugation by the declared generators,
    computed from permutation products.  Asserts that each orbit's size is
    the representative's weight, that the representative's images of the
    search generators are the lexicographically smallest in its orbit, and
    that no two orbits meet.
    """
    idx = group.index_of
    conj = [[idx(s * x * s.inverse()) for x in group.elements]
            for s in group.generators]
    gens = group.small_generating_set()
    found = set()
    for phi, weight in weighted_sweep(group, automorphisms=automorphisms):
        orbit = [phi.table]
        seen = {phi.table}
        for table in orbit:
            for c in conj:
                image = tuple(c[t] for t in table)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        assert len(orbit) == weight, (phi, weight, len(orbit))
        assert (min(tuple(table[g] for g in gens) for table in orbit)
                == tuple(phi.table[g] for g in gens)), phi
        assert found.isdisjoint(seen), "two representatives share an orbit"
        found |= seen
    return sorted(found)


def morphisms(group, automorphisms=False):
    """``every_morphism`` as Morphism objects, each verified on construction."""
    return [Morphism(group, table)
            for table in every_morphism(group, automorphisms)]


def identity_morphism(group):
    return Morphism(group, range(group.order))


def tally(pairs, method):
    """Fold ``(morphism, weight)`` pairs into weighted counters of the
    Reidemeister numbers of the automorphisms and of all the morphisms,
    each counted by ``count`` under ``method``."""
    spec, ext = Counter(), Counter()
    for phi, weight in pairs:
        value = count(phi, method)
        ext[value] += weight
        if phi.is_automorphism():
            spec[value] += weight
    return spec, ext


def _witness(phi, detail):
    """The battery's failure payload for the morphism ``phi``."""
    return spectra_mod._witness(phi.group, phi.generator_images, detail)


def morphism_battery(group, budget=DEFAULT_PRODUCT_BUDGET):
    """``spectra._battery``'s checks and counters, computed one Morphism at
    a time over ``weighted_sweep``: each representative's twisted classes,
    fixed-class count, fixed points and kernel tower come from its
    Morphism, and each inner twist tau_s . phi is composed as a full table
    and counted afresh, also when it is phi itself."""
    structure = spectra_mod.structure_flags(group)
    k = group.class_number()
    inners = [morphism_mod.inner_automorphism(group, s)
              for s in group.generator_indices()]
    agree = orbstab = reduction = parity = None
    aut_hit = end_hit = dichotomy = None
    spec, ext = Counter(), Counter()

    for phi, weight in weighted_sweep(group, budget=budget):
        partition = twisted_partition(phi)
        value = partition.count
        fixed_count = reidemeister_number(phi)
        automorphism = phi.is_automorphism()
        ext[fixed_count] += weight
        if automorphism:
            spec[fixed_count] += weight
        if agree is None:
            if value != fixed_count:
                agree = _witness(
                    phi, f"orbits {value} != fixed classes {fixed_count}")
            elif weight > 1:
                for tau in inners:
                    moved = twisted_partition(tau.compose(phi)).count
                    if moved != fixed_count:
                        agree = _witness(
                            phi, f"orbits {moved} of an inner twist != fixed "
                                 f"classes {fixed_count}")
                        break
        if (partition.identity_class_size() * phi.fixed_point_count()
                != group.order):
            orbstab = orbstab or _witness(
                phi, "identity class size times fixed subgroup order "
                     "misses the order")
        if not reduction_check(phi, fixed_count):
            reduction = reduction or _witness(
                phi, "count changed on the injective quotient")
        if group.order % 2 == 1 and value % 2 == 0:
            parity = parity or _witness(
                phi, f"even count {value} in an odd-order group")
        if value == k - 1:
            end_hit = end_hit or _witness(
                phi, f"endomorphism with count {k - 1}")
            if automorphism:
                aut_hit = aut_hit or _witness(
                    phi, f"automorphism with count {k - 1}")
        if not (automorphism or phi.is_trivial()):
            dichotomy = dichotomy or _witness(
                phi, "neither trivial nor bijective")

    named = [("orbit-vs-fixed-classes", agree),
             ("orbit-stabiliser-identity", orbstab),
             ("reduction-to-injective", reduction)]
    if group.order % 2 == 1:
        named.append(("odd-order-parity", parity))
    named.append(("spectrum-excludes-k-minus-1", aut_hit))
    if group.order > 2 and (structure["nilpotent"]
                            or structure["quasisimple"]):
        named.append(("extended-excludes-k-minus-1", end_hit))
    if structure["quasisimple"]:
        named.append(("quasisimple-dichotomy", dichotomy))
    checks = [BatteryCheck(name, witness is None, witness)
              for name, witness in named]
    return checks, (spec, ext)


@contextmanager
def miscounted_fixed_classes(group, chosen):
    """Within the block, the fixed-class count of every endomorphism of
    ``group`` whose generator images are in ``chosen`` is one too many,
    both for ``reidemeister_number`` and for the battery's own count."""
    honest = twisted_mod._fixed_count
    gens = group.generator_indices()

    def miscounted(table, classes, bijective):
        extra = tuple(table[s] for s in gens) in chosen
        return honest(table, classes, bijective) + extra

    with mock.patch.object(twisted_mod, "_fixed_count", miscounted), \
            mock.patch.object(spectra_mod, "_fixed_count", miscounted):
        yield


def assert_battery_matches(group):
    """``spectra._battery`` equals ``morphism_battery`` in checks,
    witnesses and counters, honestly and with the fixed-class count wrong
    from the middle of the sweep on, so that the orbit-vs-fixed-classes
    and reduction checks fail first at the same representative."""
    def live():
        return spectra_mod._battery(group, _Budget(DEFAULT_PRODUCT_BUDGET))

    assert live() == morphism_battery(group)
    sweep = list(weighted_sweep(group))
    chosen = {phi.generator_images for phi, _ in sweep[len(sweep) // 2:]}
    with miscounted_fixed_classes(group, chosen):
        got = live()
        assert got == morphism_battery(group)
    assert not got[0][0].passed


def battery_over(group, endos):
    """The theorem battery run over ``endos`` one morphism at a time, with
    the first failing morphism in list order as each witness."""
    k = group.class_number()
    agree_fail = orbstab_fail = reduction_fail = parity_fail = None
    first_by_value = {}
    first_auto_by_value = {}
    non_dichotomy = None
    for phi in endos:
        partition = twisted_partition(phi)
        value = partition.count
        fixed_count = reidemeister_number(phi)
        if value != fixed_count and agree_fail is None:
            agree_fail = _witness(
                phi, f"orbits {value} != fixed classes {fixed_count}")
        first_by_value.setdefault(value, phi)
        if phi.is_automorphism():
            first_auto_by_value.setdefault(value, phi)
        if (partition.identity_class_size() * phi.fixed_point_count()
                != group.order) and orbstab_fail is None:
            orbstab_fail = _witness(phi, "orbit-stabiliser")
        # An injective phi is its own reduction.
        if (not phi.is_automorphism() and reduced_count(phi) != value
                and reduction_fail is None):
            reduction_fail = _witness(phi, "reduction")
        if group.order % 2 == 1 and value % 2 == 0 and parity_fail is None:
            parity_fail = _witness(phi, f"even count {value}")
        if not (phi.is_trivial() or phi.is_automorphism()):
            non_dichotomy = non_dichotomy or phi

    def check(name, witness):
        return BatteryCheck(name, witness is None, witness)

    def hit(first, note):
        return _witness(first[k - 1], note) if k - 1 in first else None

    checks = [check("orbit-vs-fixed-classes", agree_fail),
              check("orbit-stabiliser-identity", orbstab_fail),
              check("reduction-to-injective", reduction_fail)]
    if group.order % 2 == 1:
        checks.append(check("odd-order-parity", parity_fail))
    checks.append(check("spectrum-excludes-k-minus-1",
                        hit(first_auto_by_value, "automorphism")))
    if group.order > 2 and (group.is_nilpotent() or group.is_quasisimple()):
        checks.append(check("extended-excludes-k-minus-1",
                            hit(first_by_value, "endomorphism")))
    if group.is_quasisimple():
        checks.append(check(
            "quasisimple-dichotomy",
            None if non_dichotomy is None
            else _witness(non_dichotomy, "neither trivial nor bijective")))
    return checks
