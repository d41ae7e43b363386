"""Finite permutation groups: breadth-first materialization, conjugacy
classes, and the subgroup machinery behind the classification pipeline.

Elements are numbered by breadth-first discovery from the identity with
generators applied in list order, so every downstream numbering (classes,
reports) is reproducible across runs.  Derived data is computed on first
use and kept, without locking (``_once``), so a group belongs to one thread.

The search that materializes a group also records the action of each
generator on element indices (``x -> index(x * s)``) and the Schreier tree
(each element's parent and the generator that reached it).  Every product
is a read of a right-multiplication column ``x -> index(x * y)``, built from
the tree in O(|G|) the first time ``y`` is used and cached.  Structural
computations (conjugacy classes, normal closures, the derived subgroup)
are orbits under the columns of a few generators: O(|G| * |gens|) list
reads instead of all-pairs products, and the twisted maps ``x -> s^-1 x c``
are kept like the columns.  Inverses are read along the tree, element
orders and the centre off the classes, nilpotency off the orders.  The
perfect, simple and quasisimple flags are read off certificates first (a
generator's sign, nilpotency, the centre, the class equation), and a normal
closure is built only where none decides.  No quotient group is built: a
question about G/N (is it simple?) is answered by orbits in G that take in
N's generators; N's cosets and the classes of G/N are labelled once per N
(``normal_cosets``).
See Holt, Eick and O'Brien, *Handbook of Computational Group Theory* (2005),
ch. 4.
"""

from __future__ import annotations

from functools import wraps
from math import isqrt
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded, OrderCapExceeded
from .perm import Permutation

DEFAULT_ORDER_CAP = 20000


class _Budget:
    """Approximate product counter; each charge is an upper bound on the
    work of one search node, one orbit pass or one candidate closure."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.spent = 0

    def charge(self, amount: int) -> None:
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceeded(f"product budget {self.limit} exceeded")


def _once(method):
    """A zero-argument ``FiniteGroup`` accessor computed on its first call
    and kept as the instance attribute ``"name()"``, a name no code can
    write.  No lock: a group belongs to one thread.  Not kept through
    ``__dict__``: reading it makes CPython build the instance's dict,
    which slows every later attribute read on the group."""
    key = method.__name__ + "()"

    @wraps(method)
    def cached(self):
        value = getattr(self, key, cached)  # itself: not computed yet
        if value is cached:
            value = method(self)
            setattr(self, key, value)
        return value
    return cached


class Subgroup(NamedTuple):
    """A subgroup as a membership mask over its group's element indices,
    with member indices that generate it."""

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


class ClassPartition(NamedTuple):
    """A partition of ``range(n)`` into the orbits that ``orbits`` finds:
    conjugacy classes, twisted classes or cosets.  ``class_of`` numbers
    each point's orbit; each orbit is represented by its smallest member."""

    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:  # the orbit count; shadows tuple.count
        return len(self.representatives)

    def identity_class_size(self) -> int:
        return self.sizes[self.class_of[0]]


class FiniteGroup:
    """A finite permutation group materialized from its generators.

    ``elements[0]`` is the identity and ``elements`` is closed under products
    and inverses.  ``right[s][x]`` is the index of ``elements[x] *
    generators[s]``; ``tree[j - 1] = (p, right[s])`` records that element
    ``j > 0`` was first reached as ``elements[p] * generators[s]``, with
    ``p < j``.  ``closure`` makes one ``Permutation`` per element: its
    products are per-generator getters on image tuples, not
    ``Permutation.__mul__`` calls.
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
        self._tree = tree
        self._generator_indices = tuple(index[g] for g in self.generators)
        self._columns: list[list[int] | None] = [None] * len(elements)
        # A repeated generator keeps its first column, the one the tree holds.
        for g, column in zip(self._generator_indices, right):
            if self._columns[g] is None:
                self._columns[g] = column
        self._twisted: dict[tuple[int, int], list[int]] = {}
        self._small_gens: tuple[int, ...] | None = None
        self._cosets: dict[tuple[int, ...], tuple[
            Subgroup, ClassPartition, ClassPartition]] = {}

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
        return self._generator_indices

    # -- products ---------------------------------------------------------

    def column(self, y: int) -> list[int]:
        """``index(x * y)`` for every element index ``x``.

        Built once per element, from the left row of ``y^-1`` through the
        inverses (``x * y = (y^-1 * x^-1)^-1``), and cached; the declared
        generators' columns come from ``closure``.
        """
        column = self._columns[y]
        if column is None:
            column = self._columns[y] = self._new_column(y)
        return column

    def _new_column(self, y: int) -> list[int]:
        """``column(y)`` built afresh and not cached."""
        inv = self.inverses()
        row = self.row(inv[y])
        return [inv[row[v]] for v in inv]

    def row(self, a: int) -> list[int]:
        """``index(a * x)`` for every element index ``x``, read along the
        Schreier tree: ``a * x = (a * parent(x)) * s``.  Not cached."""
        row = [a]
        append = row.append
        for parent, column in self._tree:
            append(column[row[parent]])
        return row

    def conjugation(self, t: int) -> list[int]:
        """``index(t^-1 * x * t)`` for every element index ``x``; not cached."""
        column = self.column(t)
        return [column[v] for v in self.row(self.inverse(t))]

    def _conjugation_columns(self) -> list[list[int]]:
        """``conjugation(s)`` for each declared ``s``: its twisted map to s."""
        return self._twisted_maps(self.generator_indices())

    def _twisted_maps(self, images: Sequence[int]) -> list[list[int]]:
        """x -> s^-1 x c for each declared generator s and its image c: the
        row of s^-1, then the column of c.  Built once per group, under
        (generator position, c), and kept, as the columns are."""
        maps = self._twisted
        found = []
        for key, row in zip(enumerate(images), self._inverse_generator_rows()):
            twisted = maps.get(key)
            if twisted is None:
                column = self.column(key[1])
                twisted = maps[key] = [column[x] for x in row]
            found.append(twisted)
        return found

    @_once
    def _inverse_generator_rows(self) -> list[list[int]]:
        """``row(s^-1)`` for each declared ``s``; ``column(s)`` gives s^-1."""
        return [self.row(self.column(g).index(0))
                for g in self.generator_indices()]

    def product(self, i: int, j: int) -> int:
        """``index(elements[i] * elements[j])``.  No path in the package
        calls it (they read whole columns); it stays as the public
        one-product lookup, which ``perfbench/tracing.py`` counts by name."""
        return self.column(j)[i]

    @_once
    def inverses(self) -> list[int]:
        """``index(x^-1)`` for every ``x``, in tree order: ``x = p * s``
        gives ``x^-1 = row(s^-1)[inv[p]]``, read off the generators'
        ``_inverse_generator_rows``."""
        rows = {id(self.column(g)): row for g, row in zip(
            self.generator_indices(), self._inverse_generator_rows())}
        inv = [0]
        for parent, column in self._tree:
            inv.append(rows[id(column)][inv[parent]])
        return inv

    def inverse(self, i: int) -> int:
        return self.inverses()[i]

    def element_order(self, i: int) -> int:
        return self.element_orders()[i]

    @_once
    def element_orders(self) -> list[int]:
        """The order of every element: a class function, so computed once
        per conjugacy class representative and spread by ``class_of``."""
        class_of, reps, _ = self.conjugacy_classes()
        orders = [self.elements[r].order() for r in reps]
        return [orders[c] for c in class_of]

    # -- conjugacy --------------------------------------------------------

    @_once
    def conjugacy_classes(self) -> ClassPartition:
        """The orbits of conjugation by the generators."""
        n = self.order
        partition = orbits(n, self._conjugation_columns())
        if sum(partition.sizes) != n or any(n % s for s in partition.sizes):
            raise AssertionError("conjugacy class sizes violate orbit-stabiliser")
        if partition.class_of[0] != 0 or partition.sizes[0] != 1:
            raise AssertionError("identity class is not class 0 of size 1")
        return partition

    def class_number(self) -> int:
        return self.conjugacy_classes().count

    # -- subgroups --------------------------------------------------------

    @staticmethod
    def _adjoin(found: list[int], reached: list[bool],
                columns: list[list[int]], column: list[int],
                mask: Sequence[bool] | None = None) -> None:
        """Grow the subgroup ``found``, closed under ``columns``, by the
        generator whose column is ``column``.

        Old members take the new column, new members take every column.
        With a ``mask``, a product outside it raises ValueError.
        """
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
                self._adjoin(found, reached, columns, self.column(y), flags)
        if self.order % len(members):
            raise AssertionError("subgroup order violates Lagrange")
        return Subgroup(tuple(flags), tuple(members), tuple(gens))

    def trivial_subgroup(self) -> Subgroup:
        return self.subgroup([0])

    def centralizer(self, y: int, within: Subgroup | None = None) -> Subgroup:
        """The elements of ``within`` (default: all of G) that commute
        with ``y``."""
        column, row = self.column(y), self.row(y)
        members = range(self.order) if within is None else within.indices
        return self.subgroup(x for x in members if column[x] == row[x])

    def is_normal(self, sub: Subgroup) -> bool:
        # Conjugation by each generator of G maps <gens(H)> into H.
        flags = sub.member_flags
        return all(flags[column[y]] for column in self._conjugation_columns()
                   for y in sub.generators)

    def normal_cosets(self, members: tuple[int, ...]
                      ) -> tuple[Subgroup, ClassPartition, ClassPartition]:
        """The normal subgroup N with these sorted member indices, its
        cosets (numbered by smallest member) and the classes of G/N as a
        partition of the coset labels.

        Built once per member tuple and cached: ``subgroup`` verifies
        closure, conjugation by each generator of G must keep N, and the
        cosets are the orbits of right multiplication by N's generators,
        each of which must have |N| members.  The classes are the orbits of
        the maps that conjugation induces on the coset representatives."""
        entry = self._cosets.get(members)
        if entry is None:
            sub = self.subgroup(members)
            if not self.is_normal(sub):
                raise AssertionError("subgroup is not normal")
            cosets = orbits(self.order,
                            [self.column(y) for y in sub.generators])
            if any(size != sub.order for size in cosets.sizes):
                raise AssertionError("cosets do not all have |N| members")
            label, reps = cosets.class_of, cosets.representatives
            classes = orbits(len(reps), [
                [label[conj[r]] for r in reps]
                for conj in self._conjugation_columns()])
            entry = self._cosets[members] = (sub, cosets, classes)
        return entry

    def _normal_closure(self, seeds: Iterable[int]) -> list[int]:
        """Members of the smallest normal subgroup containing ``seeds``.

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
        columns: list[list[int]] = []
        pending = list(seeds)
        while pending:
            y = pending.pop()
            if reached[y]:
                continue
            self._adjoin(members, reached, columns, self.column(y))
            pending.extend(conj[y] for conj in conjugations)
        return members

    def _generator_commutators(self) -> list[int]:
        """``[y, s] = y^-1 s^-1 y s`` for each pair of declared generators,
        as ``(z^-1 y)^-1`` with ``z = s^-1 y s``: read off the conjugation
        columns and y's own column, with no new column."""
        inv = self.inverses()
        conjugations = self._conjugation_columns()
        return [inv[self.column(y)[inv[conj[y]]]]
                for y in self.generator_indices() for conj in conjugations]

    def normal_closure(self, seeds: Iterable[int]) -> Subgroup:
        """Smallest normal subgroup containing ``seeds``."""
        return self.subgroup(self._normal_closure(seeds))

    @_once
    def center(self) -> Subgroup:
        """The classes of size 1, verified by ``subgroup``."""
        _, reps, sizes = self.conjugacy_classes()
        return self.subgroup(r for r, size in zip(reps, sizes) if size == 1)

    @_once
    def derived_subgroup(self) -> Subgroup:
        """The normal closure of the commutators of the generators."""
        return self.normal_closure(self._generator_commutators())

    # -- structural predicates ---------------------------------------------

    @_once
    def is_abelian(self) -> bool:
        gens = self.generator_indices()
        return all(self.column(s)[t] == self.column(t)[s]
                   for s in gens for t in gens)

    def _has_odd_generator(self) -> bool:
        """Some declared generator is an odd permutation: an odd number of
        its cycles have even length."""
        return any(sum(len(c) % 2 == 0 for c in g.cycles()) % 2
                   for g in self.generators)

    def _class_equation_generates(self, seeds: Iterable[int],
                                  sub: Subgroup) -> bool:
        """True when the class equation alone shows that N and ``seeds``
        normally generate G, for a normal subgroup N; False when it shows
        nothing.

        A normal subgroup M containing N and the seeds is a union of
        classes: N's, the seeds' classes outside N, and some others.  |M|
        divides |G| and is a multiple of |N|.  The sums of other classes
        are the set bits of a subset-sum mask (a Python int), cut at the
        largest gap to a proper divisor; if no such divisor is reached,
        M = G.  Takes no product.
        """
        n, flags = self.order, sub.member_flags
        class_of, reps, sizes = self.conjugacy_classes()
        seeded = {class_of[y] for y in seeds if not flags[y]}
        base = sub.order + sum(sizes[c] for c in seeded)
        gaps = [d - base for d in _divisors(n)
                if d % sub.order == 0 and base <= d < n]
        if not gaps:
            return True
        cap = (2 << max(gaps)) - 1
        mask = 1
        for c, (r, size) in enumerate(zip(reps, sizes)):
            if c not in seeded and not flags[r]:
                mask = (mask | mask << size) & cap
        return not any(mask >> gap & 1 for gap in gaps)

    @_once
    def is_perfect(self) -> bool:
        """G' = G, decided by the first certificate that settles it.

        An abelian group is perfect iff it is trivial.  An odd declared
        generator makes the even elements of G, the sign map's kernel, a
        normal subgroup of index 2, and a nontrivial nilpotent group (``is_nilpotent``,
        read off the element orders) has G' < G: neither is perfect.
        Otherwise G' contains the declared generators' commutators, and G
        is perfect when the class equation shows that they normally
        generate it (``_class_equation_generates``).  Only when that shows
        nothing is their normal closure built.
        """
        if (self.is_abelian() or self._has_odd_generator()
                or self.is_nilpotent()):
            return self.order == 1
        commutators = self._generator_commutators()
        return self._class_equation_generates(
            commutators, self.trivial_subgroup()) or len(
                self._normal_closure(commutators)) == self.order

    def _is_simple_modulo(self, sub: Subgroup) -> bool:
        """G/N is simple, for a normal subgroup N, decided inside G.

        The normal subgroups of G/N are the images of the normal subgroups
        of G that contain N, so G/N is simple iff N != G and every class
        representative x outside N has N and x normally generating G.  For
        a central x (a class of size 1) they generate N<x>, of order at
        most |N| ord(x), so if that is below |G| the answer is no.  Any other x
        is settled by the class equation when it can be
        (``_class_equation_generates``) and by a normal closure only when
        it cannot.
        """
        n, flags = self.order, sub.member_flags
        _, reps, sizes = self.conjugacy_classes()
        orders = self.element_orders()
        outside = [(x, size) for x, size in zip(reps, sizes) if not flags[x]]
        if sub.order == n or any(size == 1 and sub.order * orders[x] < n
                                 for x, size in outside):
            return False
        return all(self._class_equation_generates([x], sub)
                   or len(self._normal_closure([x, *sub.generators])) == n
                   for x, _ in outside)

    @_once
    def is_simple(self) -> bool:
        """True iff |G| > 1 and every nontrivial element normally generates G.

        An abelian group is simple iff |G| is prime.  A simple non-abelian
        group is perfect, so only groups that ``is_perfect`` accepts run
        the per-class scan (``_is_simple_modulo`` with N = 1), where a
        nontrivial centre ends it at once and the class equation settles
        most classes without a normal closure.
        """
        n = self.order
        if self.is_abelian():
            return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))
        return self.is_perfect() and \
            self._is_simple_modulo(self.trivial_subgroup())

    @_once
    def is_quasisimple(self) -> bool:
        """Perfect, with G/Z(G) simple."""
        if not self.is_perfect():
            return False
        center = self.center()
        return (self.is_simple() if center.is_trivial()
                else self._is_simple_modulo(center))

    @_once
    def is_nilpotent(self) -> bool:
        """Each Sylow subgroup is normal: for each prime p dividing |G|,
        exactly |G|_p elements have order dividing |G|_p (they then form
        the one Sylow p-subgroup).  Read off ``element_orders``."""
        orders = self.element_orders()
        rest, p = self.order, 2
        while rest > 1:
            part = 1
            while rest % p == 0:
                rest, part = rest // p, part * p
            if part > 1 and sum(part % o == 0 for o in orders) != part:
                return False
            p += 1
        return True

    # -- generating sets for morphism search ---------------------------------

    def small_generating_set(self, budget: int | None = None
                             ) -> tuple[int, ...]:
        """Generator indices used by the morphism search.

        The declared generators are kept (minus duplicates and the identity)
        when there are at most three; otherwise a small set is re-derived
        greedily, picking the first element that maximally grows the
        closure.  A round's scan stops at the first candidate that closes
        all of G, which no later candidate can beat.  Each candidate's
        closure is charged to a product budget of ``budget`` (None: no
        limit) before it is built; a scan that exceeds it raises
        BudgetExceeded and caches nothing.
        """
        if self._small_gens is None:
            self._small_gens = self._derive_small_gens(_Budget(budget))
        return self._small_gens

    def _derive_small_gens(self, tracker: _Budget) -> tuple[int, ...]:
        declared = []
        for g in self.generator_indices():
            if g != 0 and g not in declared:
                declared.append(g)
        if len(declared) <= 3:
            return tuple(declared)
        # The first pick is the first element of largest order, since
        # |<x>| = order(x).  Later rounds close each candidate together with
        # the chosen elements, through a column that is not cached.
        orders = self.element_orders()
        first = max(range(1, self.order), key=orders.__getitem__)
        chosen = [first]
        found, reached, columns = [0], [False] * self.order, []
        reached[0] = True
        self._adjoin(found, reached, columns, self.column(first))
        while len(found) < self.order:
            best, best_size = None, len(found)
            for cand in range(1, self.order):
                if reached[cand]:
                    continue
                # The candidate's column, then at most |G| members taking
                # each of the len(chosen) + 1 columns.
                tracker.charge(self.order * (len(chosen) + 2))
                grown = list(found)
                self._adjoin(grown, list(reached), list(columns),
                             self._new_column(cand))
                if len(grown) > best_size:
                    best, best_size = cand, len(grown)
                    if best_size == self.order:
                        break
            chosen.append(best)
            self._adjoin(found, reached, columns, self.column(best))
        return tuple(chosen)


def _divisors(n: int) -> list[int]:
    """The divisors of ``n`` in ascending order."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def orbits(size: int, maps: Sequence[Sequence[int]]) -> ClassPartition:
    """Orbits on ``range(size)`` of the group generated by the permutations
    ``maps``.

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
    return ClassPartition(tuple(orbit_of), tuple(reps), tuple(sizes))


def closure(degree: int, generators: Sequence[Permutation], *,
            name: str | None = None,
            order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Materialize the group generated by ``generators`` on ``degree`` points.

    Breadth-first from the identity, generators applied in list order; the
    resulting element order is deterministic.  Each generator's products are
    read by one ``itemgetter`` built up front, as plain tuples looked up in
    the index; only a new element becomes a ``Permutation``, so the search
    makes |G| of them, not |G| * |gens|.  It keeps each generator's action
    on element indices and the Schreier tree.  Raises
    OrderCapExceeded when the group would exceed ``order_cap`` or the
    degree does, since each element costs ``degree`` entries.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if degree > order_cap:
        raise OrderCapExceeded(f"degree {degree} exceeds order cap {order_cap}")
    for g in generators:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    identity = Permutation.identity(degree)
    elements = [identity]
    index = {identity: 0}
    # p * g is itemgetter(*g)(p).  One point's itemgetter gives an int, and
    # every product there is the identity, tuple(p).
    getters = [itemgetter(*g) if degree > 1 else tuple for g in generators]
    right: list[list[int]] = [[] for _ in generators]
    tree: list[tuple[int, list[int]]] = []
    head = 0
    while head < len(elements):
        p = elements[head]
        for get, column in zip(getters, right):
            q = get(p)
            j = index.get(q)
            if j is None:
                if len(elements) >= order_cap:
                    raise OrderCapExceeded(
                        f"group exceeds order cap {order_cap}"
                    )
                q = Permutation._unchecked(q)
                j = index[q] = len(elements)
                elements.append(q)
                tree.append((head, column))
            column.append(j)
        head += 1
    return FiniteGroup(degree, generators, elements, index, right=right,
                       tree=tree, name=name)
