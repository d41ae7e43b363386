"""Endomorphisms of a finite group and the one morphism search.

A Morphism is an endomorphism of one group, stored as the full
element-to-element index table.  Every public constructor checks the
homomorphism law by the search's extension of the declared generators'
images (``_extension``), which checks each (element, generator) pair once;
that suffices because each element is a positive word in the generators.

One search serves every sweep: ``_search`` hands its consumer the live
table of one endomorphism (or automorphism) per Inn(G)-orbit, weighted by
the orbit's size.  The spectra, ``classify`` and the theorem battery read
those tables in place; ``weighted_sweep`` wraps each one in a Morphism for
consumers that keep one.  The search is depth-first along the chain
of subgroups H_j generated by the first j search generators.  Depth j
picks an image for the j-th generator from a pool pruned by element order
(endomorphisms: image order divides generator order; automorphisms: equal
order and equal conjugacy-class size), keeps it only if it is the smallest
in its orbit under S_j, the centraliser of the earlier images, and extends
the partial table from H_j to H_{j+1}, verifying the homomorphism law
there: an image that breaks it drops its whole subtree, and an automorphism
candidate must keep the partial table injective.  The orbit of an image c
under S_j has [S_j : C_{S_j}(c)] points, so an image whose orbit is a point
hands S_j and its orbits on to the next depth; only the others build a
centraliser and an orbit pass.
"""

from __future__ import annotations

from itertools import compress
from operator import eq, not_
from typing import Iterator, Sequence

from .errors import NotAHomomorphism
from .group import ClassPartition, FiniteGroup, Subgroup, _Budget, orbits
from .perm import Permutation

DEFAULT_PRODUCT_BUDGET = 10 ** 8
_END_SWEEP, _AUT_SWEEP = "the End sweep", "the Aut sweep"  # budget phases


def _levels(group: FiniteGroup, gens: Sequence[int]
            ) -> list[list[tuple[int, int, int, bool]]]:
    """The steps that extend a partial table from H_j = <gens[:j]> to
    H_{j+1}, for each depth j.

    A step ``(x, i, y, new)`` reads the image of ``x`` and maps
    ``y = x * gens[i]`` to it times the image of ``gens[i]``: ``y`` takes
    that value when ``new`` (its first visit outside H_j) and must already
    have it otherwise.  Steps follow the BFS order of H_{j+1} over
    ``gens[:j+1]``; members of H_j take the pair of ``gens[j]`` only, new
    members take every generator so far, so each image is set before it is
    read, and over all depths each (element, generator) pair is checked
    exactly once.
    """
    columns = [group.column(g) for g in gens]
    inside = [False] * group.order  # H_j
    inside[0] = True
    levels = []
    for j in range(len(gens)):
        reached = [False] * group.order
        reached[0] = True
        order = [0]
        steps = []
        for x in order:
            # The BFS takes every generator; the steps skip the pairs of
            # members of H_j with gens[:j], checked at earlier depths.  A
            # member of H_{j+1} outside H_j is first reached by a step.
            first = j if inside[x] else 0
            for i in range(j + 1):
                y = columns[i][x]
                if i >= first:
                    steps.append((x, i, y, not (inside[y] or reached[y])))
                if not reached[y]:
                    reached[y] = True
                    order.append(y)
        inside = reached
        levels.append(steps)
    if not all(inside):
        raise AssertionError("generators do not generate the group")
    return levels


def _extend(table: list[int], steps: Sequence[tuple[int, int, int, bool]],
            images: Sequence[list[int]], injective: bool) -> bool:
    """Run one depth's steps on ``table``; ``images[i]`` is the column of
    the image of ``gens[i]``.  False on a conflict, or, when
    ``injective``, as soon as a non-identity element maps to the identity."""
    for x, i, y, new in steps:
        t = images[i][table[x]]
        if new:
            if injective and t == 0:
                return False
            table[y] = t
        elif table[y] != t:
            return False
    return True


def _extension(group: FiniteGroup, images: Sequence[int]) -> list[int] | None:
    """The table of the endomorphism mapping the declared generators to
    the elements ``images``, or None when that assignment does not extend."""
    table = [0] * group.order
    columns = [group.column(t) for t in images]
    for steps in _levels(group, group.generator_indices()):
        if not _extend(table, steps, columns, False):
            return None
    return table


class Morphism:
    """A verified endomorphism of ``group`` as a full index table."""

    __slots__ = ("group", "table", "generator_images")

    def __init__(self, group: FiniteGroup, table: Sequence[int], *,
                 _verified: bool = False):
        table = tuple(table)
        if len(table) != group.order:
            raise ValueError("table length differs from the group order")
        if min(table) < 0 or max(table) >= group.order:
            raise ValueError("table entry outside the group")
        # Images of the declared generators, extended and reported.
        images = tuple(table[i] for i in group.generator_indices())
        if not _verified and _extension(group, images) != list(table):
            raise NotAHomomorphism("table violates the homomorphism law")
        self.group = group
        self.table = table
        self.generator_images = images

    def __call__(self, index: int) -> int:
        return self.table[index]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Morphism)
                and self.group is other.group
                and self.table == other.table)

    def __hash__(self) -> int:
        return hash((id(self.group), self.table))

    def __repr__(self) -> str:
        images = ", ".join(self.group.elements[t].cycle_string()
                           for t in self.generator_images)
        return f"Morphism(gens -> [{images}])"

    # -- basic structure ---------------------------------------------------

    def is_trivial(self) -> bool:
        return all(t == 0 for t in self.table)

    def is_automorphism(self) -> bool:
        # A homomorphism of a finite group with a trivial kernel is onto.
        return self.table.count(0) == 1

    def compose(self, inner: "Morphism") -> "Morphism":
        """``self`` after ``inner``: x -> self(inner(x))."""
        if inner.group is not self.group:
            raise ValueError("morphisms are not composable")
        table = tuple(self.table[t] for t in inner.table)
        # A composite of verified homomorphisms is one.
        return Morphism(self.group, table, _verified=True)

    # -- fixed points ---------------------------------------------------------

    def fixed_point_count(self) -> int:
        return _fixed_points(self.table)

    # -- the kernel tower -----------------------------------------------------

    def iterated_kernel(self) -> Subgroup:
        """Union of the kernels of all powers of an endomorphism
        (``_kernel_tower``)."""
        return _kernel_tower(self.group, self.table)[0]


def _fixed_points(table: Sequence[int]) -> int:
    """The number of elements the endomorphism ``table`` fixes."""
    return sum(map(eq, table, range(len(table))))


def _kernel_tower(group: FiniteGroup, table: Sequence[int]
                  ) -> tuple[Subgroup, ClassPartition]:
    """Union N of the kernels of all powers of the endomorphism ``table``,
    with the classes of G/N: the group's entry for N
    (``FiniteGroup.quotient_classes``, verified once per tower).  Checked
    here, for every phi, in one pass over the table: phi^-1(N) = N, that
    is, phi keeps N and the map it induces on G/N is injective.  Both hold
    for a true tower, since phi(x) in N puts x in the kernel of a power
    of phi.
    """
    sub, classes = group.quotient_classes(_stable_kernel(table))
    flags = sub.member_flags
    if tuple(map(flags.__getitem__, table)) != flags:
        raise AssertionError("kernel tower is not its own preimage")
    return sub, classes


def _stable_kernel(table: Sequence[int]) -> tuple[int, ...]:
    """The sorted indices of the union of the kernels of the powers of the
    endomorphism ``table``.

    The kernels form an ascending chain, and ker phi^m = ker phi^(2m)
    means it has stabilized (ker phi^(m+1) lies between them), so the
    table is squared until its count of zeros stops growing.
    """
    zeros = table.count(0)
    while True:
        squared = [table[t] for t in table]
        grown = squared.count(0)
        if grown == zeros:
            break
        table, zeros = squared, grown
    return tuple(compress(range(len(table)), map(not_, table)))


def inner_automorphism(group: FiniteGroup, conjugator: int) -> Morphism:
    """The automorphism g -> h g h^-1 for the element with index ``conjugator``."""
    return Morphism(group, group.conjugation(group.inverse(conjugator)))


def morphism_from_images(group: FiniteGroup,
                         images: Sequence[Permutation | int]) -> Morphism:
    """Extend an assignment of the declared generators to a verified Morphism.

    Each image is an element or an integer index into the group.  Raises
    ValueError for a wrong count, an element outside the group or an index
    that is not an integer in range; NotAHomomorphism when the assignment
    does not extend.
    """
    if len(images) != len(group.generators):
        raise ValueError(
            f"expected {len(group.generators)} images, got {len(images)}"
        )
    idxs = []
    for img in images:
        if isinstance(img, Permutation):
            if img not in group:
                raise ValueError(f"{img!r} is not an element of the group")
            idxs.append(group.index_of(img))
        else:
            if isinstance(img, bool) or not isinstance(img, int):
                raise ValueError(f"image index {img!r} is not an integer")
            if not 0 <= img < group.order:
                raise ValueError(f"image index {img} outside the group")
            idxs.append(img)
    table = _extension(group, idxs)
    if table is None:
        raise NotAHomomorphism("generator images do not extend")
    return Morphism(group, table, _verified=True)


def _pools(group: FiniteGroup, gens: Sequence[int],
           automorphisms: bool) -> list[list[int]]:
    """Candidate images per search generator.

    Endomorphisms: elements whose order divides the generator's order.
    Automorphisms: elements of the generator's order and class size.
    """
    orders = group.element_orders()
    if not automorphisms:
        return [[x for x in range(group.order) if orders[g] % orders[x] == 0]
                for g in gens]
    classes = group.conjugacy_classes()
    size = [classes.sizes[c] for c in classes.class_of]
    return [[x for x in range(group.order)
             if orders[x] == orders[g] and size[x] == size[g]]
            for g in gens]


def _search(group: FiniteGroup, automorphisms: bool, tracker: _Budget,
            phase: str | None = None
            ) -> Iterator[tuple[list[int], int, bool]]:
    """The one morphism search behind every sweep.

    Yields ``(table, weight, bijective)`` per Inn(G)-orbit.  ``table`` is
    the search's live list, phi's images by element index: it is valid only
    until the next item is requested, and the consumer must not change it
    (copy it to keep it; ``weighted_sweep`` does).  ``bijective`` tells
    whether phi is an automorphism: always in the Aut sweep, and in the End
    sweep exactly when the kernel is trivial, since an injective map of a
    finite set to itself is onto.

    A depth-first search along the chain H_0 = 1 < H_1 < ... < H_k = G,
    H_j = <gens[:j]> for the small generating set.  Depth j chooses an
    image c_j for gens[j] and extends the partial table from H_j to H_{j+1}
    (``_levels``), verifying the homomorphism law there; a conflict drops
    the candidate with its whole subtree.  After the generating-set scan
    it enters ``phase``, by default the End or the Aut sweep as
    ``automorphisms`` says (only the battery names its own), and charges
    ``tracker`` each node's steps.  c_j is kept only if it is the smallest
    index in its orbit under S_j = C_G(c_0, ..., c_{j-1}) acting by
    conjugation, and the weight is multiplied by that orbit's size.  The kept tuples are the
    lexicographically smallest of their Inn(G)-orbits, one per orbit, and
    each weight is |G| / |C_G(phi(G))|, the size of phi's Inn(G)-orbit.

    Each node holds ``(stab, orbit)``: S_j as a Subgroup, None only for
    G, and its orbits numbered by smallest member (as ``orbits`` numbers
    them), None once S_j is central and every orbit is a point; then the
    remaining generators range over their whole pools.  The root holds G
    and the conjugacy classes.  One rule moves down the chain: the orbit of
    c_j has [S_j : S_{j+1}] points, so a kept c_j whose orbit is a point
    (the identity, a central element, any element centralising S_j) hands
    ``(stab, orbit)`` on unchanged, and any other builds S_{j+1} and its
    orbits once, charged |G| and |G| per generator of S_{j+1}.

    Automorphism candidates must also keep the partial table injective: no
    non-identity element of H_{j+1} may map to the identity.  A
    homomorphism on H_{j+1} with a trivial kernel is what an automorphism
    restricts to, so the prune is lossless.  The pools and every prune are
    invariant under conjugation.
    """
    gens = group.small_generating_set(tracker)
    tracker.phase = phase or (_AUT_SWEEP if automorphisms else _END_SWEEP)
    levels = _levels(group, gens)
    pools = _pools(group, gens, automorphisms)
    table = [0] * group.order
    images: list = [None] * len(gens)  # columns of c_0, ..., c_depth
    last = len(gens) - 1
    center_order = group.center().order

    def search(depth: int, weight: int, stab: Subgroup | None,
               orbit: ClassPartition | None
               ) -> Iterator[tuple[list[int], int, bool]]:
        steps = levels[depth]
        if orbit is None:
            kept = [(x, 1) for x in pools[depth]]
        else:
            class_of, reps, sizes = orbit
            kept = [(x, sizes[class_of[x]]) for x in pools[depth]
                    if reps[class_of[x]] == x]
        for cand, size in kept:
            tracker.charge(len(steps))
            images[depth] = group.column(cand)
            if not _extend(table, steps, images, automorphisms):
                continue
            if depth == last:
                if automorphisms and len(set(table)) != group.order:
                    raise AssertionError("generating images gave a non-bijection")
                bijective = automorphisms or table.count(0) == 1
                yield table, weight * size, bijective
                continue
            nxt, nxt_orbit = stab, orbit
            if size > 1:
                tracker.charge(group.order)
                nxt, nxt_orbit = group.centralizer(cand, stab), None
                if nxt.order > center_order:
                    maps = [group.conjugation(t) for t in nxt.generators]
                    tracker.charge(group.order * len(maps))
                    nxt_orbit = orbits(group.order, maps)
            yield from search(depth + 1, weight * size, nxt, nxt_orbit)

    root = group.conjugacy_classes() if center_order < group.order else None
    yield from search(0, 1, None, root)


def weighted_sweep(group: FiniteGroup, *, automorphisms: bool = False,
                   budget: int | None = DEFAULT_PRODUCT_BUDGET
                   ) -> Iterator[tuple[Morphism, int]]:
    """One endomorphism (or automorphism) per Inn(G)-orbit, with the size
    of its orbit.

    R(tau_h . phi) = R(phi), since right multiplication by h^-1 carries the
    twisted classes of phi onto those of tau_h . phi; class preservation
    and bijectivity are invariant too.  So weighted counts over this sweep
    equal counts over all of End(G) or Aut(G), and the weights sum to |End|
    or |Aut|.  Each item is a Morphism holding its own copy of ``_search``'s
    live table, so it may be kept; the search, its budget charges and its
    phase are those of the spectra's fold, the generating-set scan included.
    """
    for table, weight, _ in _search(group, automorphisms, _Budget(budget)):
        yield Morphism(group, table, _verified=True), weight

