"""Finite permutation groups: breadth-first materialization, conjugacy
classes, and the subgroup/quotient machinery behind the classification
pipeline.

Element order is canonical: breadth-first discovery from the identity with
generators applied in list order, so every downstream numbering (classes,
reports) is reproducible across runs.  All lazily built tables are write-once
behind a lock, so a group value may be shared across threads.

The search that materializes a group also records the action of each
generator on element indices (``x -> index(x * s)``) and the Schreier tree
(each element's parent and the generator that reached it).  Every product
is a read of a right-multiplication column ``x -> index(x * y)``, built from
the tree in O(|G|) the first time ``y`` is used and cached.  Structural
computations (conjugacy classes, centers, normal closures, the derived and
lower central series, cosets, quotients) are orbits under the columns of a
few generators: O(|G| * |gens|) list reads instead of all-pairs products.
See Holt, Eick and O'Brien, *Handbook of Computational Group Theory* (2005),
ch. 4.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import OrderCapExceeded
from .perm import Permutation

DEFAULT_ORDER_CAP = 20000


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of ``parent`` as a membership mask over element indices,
    with member indices that generate it."""

    parent: "FiniteGroup"
    member_flags: tuple[bool, ...]
    indices: tuple[int, ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.indices)

    def __contains__(self, index: int) -> bool:
        return self.member_flags[index]

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order


@dataclass(frozen=True, eq=False)
class ClassPartition:
    """Conjugacy-class decomposition with canonical (smallest-member) reps."""

    group: "FiniteGroup"
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.representatives)

    def members(self, class_index: int) -> list[int]:
        return [i for i, c in enumerate(self.class_of) if c == class_index]


class FiniteGroup:
    """A finite permutation group materialized from its generators.

    ``elements[0]`` is the identity and ``elements`` is closed under products
    and inverses.  ``right[s][x]`` is the index of ``elements[x] *
    generators[s]``; ``tree[j - 1] = (p, right[s])`` records that element
    ``j > 0`` was first reached as ``elements[p] * generators[s]``, with
    ``p < j``.  Heavy accessors (columns, inverses, element orders,
    conjugacy classes) are built on first use and cached.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 elements: list[Permutation], index: dict[Permutation, int],
                 *, right: list[list[int]], tree: list[tuple[int, list[int]]],
                 name: str | None = None):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = elements
        self.name = name
        self._index = index
        self._right = right
        self._tree = tree
        # Reentrant: lazy builders call each other (classes need inverses).
        self._lock = threading.RLock()
        self._columns: list[list[int] | None] = [None] * len(elements)
        for g, column in zip(self.generator_indices(), right):
            self._columns[g] = column
        self._inverses: list[int] | None = None
        self._conjugations: list[list[int]] | None = None
        self._orders: list[int] | None = None
        self._classes: ClassPartition | None = None
        self._center: Subgroup | None = None
        self._derived: Subgroup | None = None
        self._small_gens: tuple[int, ...] | None = None
        self._ext_plan: tuple[int, ...] | None = None

    # -- basics ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order}, degree={self.degree})"

    def index_of(self, perm: Permutation) -> int:
        return self._index[perm]

    def __contains__(self, perm: Permutation) -> bool:
        return perm in self._index

    def generator_indices(self) -> tuple[int, ...]:
        return tuple(self._index[g] for g in self.generators)

    # -- products ---------------------------------------------------------

    def column(self, y: int) -> list[int]:
        """``index(x * y)`` for every element index ``x``.

        Built once per element, from the left row of ``y^-1`` through the
        inverses (``x * y = (y^-1 * x^-1)^-1``), and cached; the declared
        generators' columns come from ``closure``.
        """
        column = self._columns[y]
        if column is None:
            with self._lock:
                column = self._columns[y]
                if column is None:
                    inv = self.inverses()
                    row = self.row(inv[y])
                    column = self._columns[y] = [inv[row[v]] for v in inv]
        return column

    def row(self, a: int) -> list[int]:
        """``index(a * x)`` for every element index ``x``, read along the
        Schreier tree: ``a * x = (a * parent(x)) * s``.  Not cached."""
        row = [a]
        append = row.append
        for parent, column in self._tree:
            append(column[row[parent]])
        return row

    def _conjugation_columns(self) -> list[list[int]]:
        """For each generator ``s``, ``index(s^-1 * x * s)`` for every ``x``."""
        if self._conjugations is None:
            with self._lock:
                if self._conjugations is None:
                    inv = self.inverses()
                    self._conjugations = [
                        [column[v] for v in self.row(inv[g])]
                        for g, column in zip(self.generator_indices(),
                                             self._right)
                    ]
        return self._conjugations

    def product(self, i: int, j: int) -> int:
        return self.column(j)[i]

    def inverses(self) -> list[int]:
        if self._inverses is None:
            with self._lock:
                if self._inverses is None:
                    idx = self._index
                    self._inverses = [idx[p.inverse()] for p in self.elements]
        return self._inverses

    def inverse(self, i: int) -> int:
        return self.inverses()[i]

    def power(self, i: int, exponent: int) -> int:
        if exponent < 0:
            return self.power(self.inverse(i), -exponent)
        row = self.row(i)
        acc = 0
        for _ in range(exponent):
            acc = row[acc]
        return acc

    def element_order(self, i: int) -> int:
        return self.element_orders()[i]

    def element_orders(self) -> list[int]:
        if self._orders is None:
            with self._lock:
                if self._orders is None:
                    self._orders = [p.order() for p in self.elements]
        return self._orders

    # -- conjugacy --------------------------------------------------------

    def conjugacy_classes(self) -> ClassPartition:
        if self._classes is None:
            with self._lock:
                if self._classes is None:
                    self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self) -> ClassPartition:
        # Classes are the orbits of conjugation by the generators.
        n = self.order
        class_of, reps, sizes = orbits(n, self._conjugation_columns())
        partition = ClassPartition(self, tuple(class_of), tuple(reps), tuple(sizes))
        if sum(sizes) != n or any(n % s for s in sizes):
            raise AssertionError("conjugacy class sizes violate orbit-stabiliser")
        if partition.class_of[0] != 0 or partition.sizes[0] != 1:
            raise AssertionError("identity class is not class 0 of size 1")
        return partition

    def class_number(self) -> int:
        return self.conjugacy_classes().count

    # -- subgroups --------------------------------------------------------

    def _adjoin(self, found: list[int], reached: list[bool],
                columns: list[list[int]], y: int,
                mask: Sequence[bool] | None = None) -> None:
        """Grow the subgroup ``found``, closed under ``columns``, by the
        generator ``y``.

        Old members take the new column, new members take every column.
        With a ``mask``, a product outside it raises ValueError.
        """
        column = self.column(y)
        columns.append(column)
        old, newest = len(found), (column,)
        for i, x in enumerate(found):
            for col in newest if i < old else columns:
                z = col[x]
                if not reached[z]:
                    if mask is not None and not mask[z]:
                        raise ValueError("subgroup not closed under products")
                    reached[z] = True
                    found.append(z)

    def subgroup(self, indices: Iterable[int]) -> Subgroup:
        """Build a verified subgroup from member indices.

        Checks identity membership, closure and Lagrange.  Each member not
        yet reached becomes a generator and the reached set is re-closed
        under right multiplication; a product outside the set is rejected
        at once.  A finite set equal to the closure of a subset of itself is
        a subgroup, at O(|H| log |H|) products.
        """
        members = sorted(set(indices))
        flags = [False] * self.order
        for i in members:
            flags[i] = True
        if not members or members[0] != 0:
            raise ValueError("subgroup must contain the identity")
        reached = [False] * self.order
        reached[0] = True
        found = [0]
        gens: list[int] = []
        columns: list[list[int]] = []
        for y in members:
            if not reached[y]:
                gens.append(y)
                self._adjoin(found, reached, columns, y, flags)
        if self.order % len(members):
            raise AssertionError("subgroup order violates Lagrange")
        return Subgroup(self, tuple(flags), tuple(members), tuple(gens))

    def trivial_subgroup(self) -> Subgroup:
        return self.subgroup([0])

    def subgroup_closure(self, seeds: Iterable[int]) -> tuple[int, ...]:
        """Indices of the subgroup generated by ``seeds``, sorted."""
        reached = [False] * self.order
        reached[0] = True
        found = [0]
        columns: list[list[int]] = []
        for y in seeds:
            if not reached[y]:
                self._adjoin(found, reached, columns, y)
        return tuple(sorted(found))

    def is_normal(self, sub: Subgroup) -> bool:
        # Conjugation by each generator of G maps <gens(H)> into H.
        flags = sub.member_flags
        return all(flags[column[y]] for column in self._conjugation_columns()
                   for y in sub.generators)

    def _normal_closure(self, seeds: Iterable[int]) -> tuple[list[int], list[int]]:
        """Members and generators of the smallest normal subgroup containing
        ``seeds``.

        N starts as the subgroup generated by the seeds and takes in
        ``s^-1 y s`` for every generator ``s`` of G and generator ``y`` of N
        until nothing new appears: a finite subgroup that conjugation by
        each generator of G maps into itself is normal.  Every accepted
        generator at least doubles N, so there are O(log |G|) of them, each
        costing O(|G|) list reads.
        """
        conjugations = self._conjugation_columns()
        reached = [False] * self.order
        reached[0] = True
        members = [0]
        gens: list[int] = []
        columns: list[list[int]] = []
        pending = list(seeds)
        while pending:
            y = pending.pop()
            if reached[y]:
                continue
            gens.append(y)
            self._adjoin(members, reached, columns, y)
            pending.extend(conj[y] for conj in conjugations)
        return members, gens

    def _generator_commutators(self, ys: Iterable[int]) -> list[int]:
        """``[y, s] = y^-1 s^-1 y s`` for each ``y`` and each generator ``s``."""
        inv = self.inverses()
        conjugations = self._conjugation_columns()
        return [self.product(inv[y], conj[y]) for y in ys for conj in conjugations]

    def normal_closure(self, seeds: Iterable[int]) -> Subgroup:
        """Smallest normal subgroup containing ``seeds``."""
        return self.subgroup(self._normal_closure(seeds)[0])

    def center(self) -> Subgroup:
        if self._center is None:
            with self._lock:
                if self._center is None:
                    conjugations = self._conjugation_columns()
                    members = [
                        x for x in range(self.order)
                        if all(conj[x] == x for conj in conjugations)
                    ]
                    self._center = self.subgroup(members)
        return self._center

    def derived_subgroup(self) -> Subgroup:
        """The normal closure of the commutators of the generators."""
        if self._derived is None:
            with self._lock:
                if self._derived is None:
                    self._derived = self.normal_closure(
                        self._generator_commutators(self.generator_indices()))
        return self._derived

    # -- structural predicates ---------------------------------------------

    def is_abelian(self) -> bool:
        gens = self.generator_indices()
        right = self._right
        return all(right[s][a] == right[t][b]
                   for t, a in enumerate(gens) for s, b in enumerate(gens))

    def is_perfect(self) -> bool:
        return self.derived_subgroup().order == self.order

    def is_simple(self) -> bool:
        """True iff |G| > 1 and every nontrivial element normally generates G.

        The trivial group is not simple; prime-order groups are.
        """
        if self.order == 1:
            return False
        return all(len(self._normal_closure([rep])[0]) == self.order
                   for rep in self.conjugacy_classes().representatives[1:])

    def is_quasisimple(self) -> bool:
        if not self.is_perfect():
            return False
        quotient_group, _ = self.quotient(self.center())
        return quotient_group.is_simple()

    def is_nilpotent(self) -> bool:
        """The lower central series reaches the trivial subgroup.

        With G = <X> and gamma_i the normal closure of Y_i, gamma_{i+1} =
        [gamma_i, G] is the normal closure of the commutators [y, x] for y
        in Y_i and x in X.
        """
        size, gens = self.order, self.generator_indices()
        while size > 1:
            members, gens = self._normal_closure(
                self._generator_commutators(gens))
            if len(members) == size:
                return False
            size = len(members)
        return True

    # -- quotients ----------------------------------------------------------

    def left_cosets(self, sub: Subgroup) -> tuple[list[int], list[int]]:
        """(coset_of, representatives); reps are smallest member indices.

        The left cosets are the orbits of right multiplication by the
        subgroup's generators.
        """
        coset_of, reps, _ = orbits(
            self.order, [self.column(h) for h in sub.generators])
        return coset_of, reps

    def quotient(self, sub: Subgroup):
        """Quotient by a normal subgroup, realized on its left cosets.

        Returns ``(quotient_group, projection)`` where the projection is a
        verified surjective Morphism with kernel ``sub``.
        """
        from .morphism import Morphism  # deferred: morphism depends on group

        if sub.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        if not self.is_normal(sub):
            raise ValueError("subgroup is not normal")
        coset_of, reps = self.left_cosets(sub)
        gen_perms = []
        for g in self.generator_indices():
            row = self.row(g)
            gen_perms.append(Permutation(coset_of[row[r]] for r in reps))
        label = f"{self.name}/N{sub.order}" if self.name else None
        quotient_group = closure(len(reps), gen_perms, name=label,
                                 order_cap=self.order)
        if quotient_group.order * sub.order != self.order:
            raise AssertionError("coset action has the wrong order")
        # Along the Schreier tree: x = parent(x) * s projects to
        # proj(parent(x)) * (the coset permutation of s).
        image_column = {id(column): image for column, image
                        in zip(self._right, quotient_group._right)}
        proj_table = [0]
        for parent, column in self._tree:
            proj_table.append(image_column[id(column)][proj_table[parent]])
        projection = Morphism(self, quotient_group, proj_table)
        if tuple(i for i, t in enumerate(proj_table) if t == 0) != sub.indices:
            raise AssertionError("projection kernel differs from the subgroup")
        return quotient_group, projection

    # -- generating sets for morphism search ---------------------------------

    def small_generating_set(self) -> tuple[int, ...]:
        """Generator indices used by the morphism search.

        The declared generators are kept (minus duplicates and the identity)
        when there are at most three; otherwise a small set is re-derived
        greedily, picking the element that maximally grows the closure.
        """
        if self._small_gens is None:
            with self._lock:
                if self._small_gens is None:
                    self._small_gens = self._derive_small_gens()
        return self._small_gens

    def _derive_small_gens(self) -> tuple[int, ...]:
        declared = []
        for g in self.generator_indices():
            if g != 0 and g not in declared:
                declared.append(g)
        if len(declared) <= 3:
            return tuple(declared)
        chosen: list[int] = []
        reached = 1
        while reached < self.order:
            best, best_size = None, reached
            for cand in range(1, self.order):
                size = len(self.subgroup_closure(chosen + [cand]))
                if size > best_size:
                    best, best_size = cand, size
            chosen.append(best)
            reached = best_size
        return tuple(chosen)

    def extension_plan(self) -> tuple[int, ...]:
        """Element indices in BFS order over the small generating set.

        Guarantees that when an index is visited, its image under a partial
        homomorphism extension is already determined.
        """
        if self._ext_plan is None:
            with self._lock:
                if self._ext_plan is None:
                    columns = [self.column(g)
                               for g in self.small_generating_set()]
                    seen = [False] * self.order
                    seen[0] = True
                    order = [0]
                    for x in order:
                        for column in columns:
                            y = column[x]
                            if not seen[y]:
                                seen[y] = True
                                order.append(y)
                    if len(order) != self.order:
                        raise AssertionError(
                            "small generating set does not generate")
                    self._ext_plan = tuple(order)
        return self._ext_plan


def orbits(size: int, maps: Sequence[Sequence[int]]
           ) -> tuple[list[int], list[int], list[int]]:
    """Orbits on ``range(size)`` of the group generated by the permutations
    ``maps``, as ``(orbit_of, representatives, sizes)``.

    Scanning points in ascending order numbers the orbits by their smallest
    members, which are the representatives.
    """
    orbit_of = [-1] * size
    reps: list[int] = []
    sizes: list[int] = []
    for g in range(size):
        if orbit_of[g] >= 0:
            continue
        oid = len(reps)
        reps.append(g)
        orbit_of[g] = oid
        orbit = [g]
        for x in orbit:
            for image in maps:
                y = image[x]
                if orbit_of[y] < 0:
                    orbit_of[y] = oid
                    orbit.append(y)
        sizes.append(len(orbit))
    return orbit_of, reps, sizes


def closure(degree: int, generators: Sequence[Permutation], *,
            name: str | None = None,
            order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Materialize the group generated by ``generators`` on ``degree`` points.

    Breadth-first from the identity, generators applied in list order; the
    resulting element order is deterministic.  The search keeps each
    generator's action on element indices and the Schreier tree.  Raises
    OrderCapExceeded when the group would exceed ``order_cap``.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    identity = Permutation.identity(degree)
    elements = [identity]
    index = {identity: 0}
    right: list[list[int]] = [[] for _ in generators]
    tree: list[tuple[int, list[int]]] = []
    head = 0
    while head < len(elements):
        p = elements[head]
        for g, column in zip(generators, right):
            q = p * g
            j = index.get(q)
            if j is None:
                if len(elements) >= order_cap:
                    raise OrderCapExceeded(
                        f"group exceeds order cap {order_cap}"
                    )
                j = index[q] = len(elements)
                elements.append(q)
                tree.append((head, column))
            column.append(j)
        head += 1
    return FiniteGroup(degree, generators, elements, index, right=right,
                       tree=tree, name=name)
