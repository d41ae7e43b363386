"""Homomorphisms between finite groups and exhaustive endomorphism /
automorphism enumeration.

A Morphism stores the full element-to-element index table.  Every public
constructor verifies the homomorphism law on all (element, generator) pairs,
which suffices because each element is a positive word in the generators.

The enumeration searches the grid of generator-image candidates, pruned by
element order (endomorphisms: image order divides generator order;
automorphisms: equal order and equal conjugacy-class size, plus a
prefix-subgroup-order check), then extends and verifies each candidate in a
single pass with early abort.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import BudgetExceeded, NotAHomomorphism
from .group import FiniteGroup, Subgroup
from .perm import Permutation

DEFAULT_PRODUCT_BUDGET = 10 ** 8


class _Budget:
    """Approximate product counter; charges are upper bounds per attempt."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.spent = 0

    def charge(self, amount: int) -> None:
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceeded(f"product budget {self.limit} exceeded")


def _extend_and_verify(target: FiniteGroup, src_columns: Sequence[list[int]],
                       images: Sequence[int],
                       plan: Sequence[int]) -> list[int] | None:
    """Extend generator images along ``plan`` and verify the homomorphism law.

    ``src_columns`` are the source's columns of the generators that
    ``images`` assign.  ``plan`` must list all source element indices in an
    order where each element's image is determined before the element is
    visited (BFS order over those generators).  Visiting every (element,
    generator) pair both builds the table and completes the verification;
    returns None on any conflict.
    """
    phi = [-1] * len(plan)
    phi[0] = 0
    pairs = [(column, target.column(t))
             for column, t in zip(src_columns, images)]
    for x in plan:
        fx = phi[x]
        for src, tgt in pairs:
            y = src[x]
            t = tgt[fx]
            known = phi[y]
            if known < 0:
                phi[y] = t
            elif known != t:
                return None
    return phi


def _verify_table(source: FiniteGroup, target: FiniteGroup,
                  table: Sequence[int]) -> bool:
    if table[0] != 0:
        return False
    for g in source.generator_indices():
        src, tgt = source.column(g), target.column(table[g])
        if any(table[src[x]] != tgt[tx] for x, tx in enumerate(table)):
            return False
    return True


class Morphism:
    """A verified homomorphism ``source -> target`` as a full index table."""

    __slots__ = ("source", "target", "table", "generator_images")

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 table: Sequence[int], *, _verified: bool = False):
        table = tuple(table)
        if len(table) != source.order:
            raise ValueError("table length differs from source order")
        if any(not 0 <= t < target.order for t in table):
            raise ValueError("table entry outside target")
        if not _verified and not _verify_table(source, target, table):
            raise NotAHomomorphism("table violates the homomorphism law")
        self.source = source
        self.target = target
        self.table = table
        # Images of the declared source generators, for reporting.
        self.generator_images = tuple(table[i] for i in source.generator_indices())

    def __call__(self, index: int) -> int:
        return self.table[index]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Morphism)
                and self.source is other.source
                and self.target is other.target
                and self.table == other.table)

    def __hash__(self) -> int:
        return hash((id(self.source), id(self.target), self.table))

    def __repr__(self) -> str:
        images = ", ".join(self.target.elements[t].cycle_string()
                           for t in self.generator_images)
        return f"Morphism(gens -> [{images}])"

    # -- basic structure ---------------------------------------------------

    def is_endomorphism(self) -> bool:
        return self.source is self.target

    def _require_endo(self) -> None:
        if not self.is_endomorphism():
            raise ValueError("operation requires an endomorphism")

    def is_trivial(self) -> bool:
        return all(t == 0 for t in self.table)

    def is_automorphism(self) -> bool:
        return (self.source is self.target
                and len(set(self.table)) == self.source.order)

    def compose(self, inner: "Morphism") -> "Morphism":
        """``self`` after ``inner``: x -> self(inner(x))."""
        if inner.target is not self.source:
            raise ValueError("morphisms are not composable")
        table = tuple(self.table[t] for t in inner.table)
        # A composite of verified homomorphisms is one.
        return Morphism(inner.source, self.target, table, _verified=True)

    def power(self, exponent: int) -> "Morphism":
        self._require_endo()
        if exponent < 0:
            raise ValueError("negative powers only via inverse()")
        result = identity_morphism(self.source)
        for _ in range(exponent):
            result = self.compose(result)
        return result

    def inverse(self) -> "Morphism":
        if not self.is_automorphism():
            raise ValueError("only automorphisms can be inverted")
        inv = [0] * len(self.table)
        for i, t in enumerate(self.table):
            inv[t] = i
        return Morphism(self.target, self.source, inv)

    # -- kernels, images, fixed points ---------------------------------------

    def kernel(self) -> Subgroup:
        members = [i for i, t in enumerate(self.table) if t == 0]
        image_size = len(set(self.table))
        if len(members) * image_size != self.source.order:
            raise AssertionError("first isomorphism theorem violated")
        return self.source.subgroup(members)

    def image(self) -> Subgroup:
        members = sorted(set(self.table))
        kernel_size = sum(1 for t in self.table if t == 0)
        if len(members) * kernel_size != self.source.order:
            raise AssertionError("first isomorphism theorem violated")
        return self.target.subgroup(members)

    def fixed_subgroup(self) -> Subgroup:
        self._require_endo()
        return self.source.subgroup(
            i for i, t in enumerate(self.table) if t == i
        )

    def fixed_point_count(self) -> int:
        self._require_endo()
        return sum(1 for i, t in enumerate(self.table) if t == i)

    def is_fixed_point_free(self) -> bool:
        """Fixes no element besides the identity."""
        self._require_endo()
        return all(t != i for i, t in enumerate(self.table) if i != 0)

    def is_class_preserving(self, classes=None) -> bool:
        """Maps every conjugacy class to itself (checked on representatives)."""
        self._require_endo()
        if classes is None:
            classes = self.source.conjugacy_classes()
        class_of = classes.class_of
        return all(class_of[self.table[r]] == c
                   for c, r in enumerate(classes.representatives))

    # -- the kernel tower -----------------------------------------------------

    def iterated_kernel(self) -> Subgroup:
        """Union of the kernels of all powers of an endomorphism.

        The kernels form an ascending chain, so equal consecutive orders mean
        the chain has stabilized.  The result is verified phi-invariant and
        normal; the induced map on the quotient is injective.
        """
        self._require_endo()
        if self.is_automorphism():
            return self.source.trivial_subgroup()
        current = self
        members = [i for i, t in enumerate(current.table) if t == 0]
        while True:
            current = self.compose(current)
            nxt = [i for i, t in enumerate(current.table) if t == 0]
            if len(nxt) == len(members):
                break
            members = nxt
        sub = self.source.subgroup(members)
        if not all(sub.member_flags[self.table[x]] for x in sub.indices):
            raise AssertionError("stabilized kernel union is not invariant")
        if not self.source.is_normal(sub):
            raise AssertionError("stabilized kernel union is not normal")
        return sub

    def induced_on_quotient(self, sub: Subgroup) -> "Morphism":
        """The induced endomorphism on source/sub.

        ``sub`` must be normal and invariant under the endomorphism.
        """
        self._require_endo()
        if not all(sub.member_flags[self.table[x]] for x in sub.indices):
            raise ValueError("subgroup is not invariant under the morphism")
        quotient_group, projection = self.source.quotient(sub)
        reps = [-1] * quotient_group.order
        for e in range(self.source.order):
            c = projection.table[e]
            if reps[c] < 0:
                reps[c] = e
        induced = [projection.table[self.table[r]] for r in reps]
        for e in range(self.source.order):
            if induced[projection.table[e]] != projection.table[self.table[e]]:
                raise AssertionError("induced map is not well defined")
        return Morphism(quotient_group, quotient_group, induced, _verified=True)


def identity_morphism(group: FiniteGroup) -> Morphism:
    return Morphism(group, group, range(group.order), _verified=True)


def inner_automorphism(group: FiniteGroup, conjugator: int) -> Morphism:
    """The automorphism g -> h g h^-1 for the element with index ``conjugator``."""
    column = group.column(group.inverse(conjugator))
    table = [column[x] for x in group.row(conjugator)]
    return Morphism(group, group, table)


def morphism_from_images(source: FiniteGroup, target: FiniteGroup,
                         images: Sequence[Permutation | int]) -> Morphism:
    """Extend an assignment of the declared generators to a verified Morphism.

    Raises NotAHomomorphism when the assignment does not extend.
    """
    if len(images) != len(source.generators):
        raise ValueError(
            f"expected {len(source.generators)} images, got {len(images)}"
        )
    idxs = []
    for img in images:
        if isinstance(img, Permutation):
            if img not in target:
                raise ValueError(f"{img!r} is not an element of the target")
            idxs.append(target.index_of(img))
        else:
            if not 0 <= img < target.order:
                raise ValueError(f"image index {img} outside target")
            idxs.append(img)
    # Elements are already in BFS order over the declared generators.
    columns = [source.column(g) for g in source.generator_indices()]
    table = _extend_and_verify(target, columns, idxs, range(source.order))
    if table is None:
        raise NotAHomomorphism("generator images do not extend")
    return Morphism(source, target, table, _verified=True)


def _endo_pools(group: FiniteGroup, gens: Sequence[int]) -> list[list[int]]:
    orders = group.element_orders()
    return [
        [x for x in range(group.order) if orders[g] % orders[x] == 0]
        for g in gens
    ]


def enumerate_endomorphisms(group: FiniteGroup, *,
                            budget: int | None = DEFAULT_PRODUCT_BUDGET
                            ) -> Iterator[Morphism]:
    """Every endomorphism exactly once, in deterministic order.

    A generator of order n may only map to elements whose order divides n;
    each surviving candidate is extended and verified in one pass.
    """
    gens = group.small_generating_set()
    plan = group.extension_plan()
    columns = [group.column(g) for g in gens]
    pools = _endo_pools(group, gens)
    tracker = _Budget(budget)
    attempt_cost = group.order * max(1, len(gens))
    for combo in itertools.product(*pools):
        tracker.charge(attempt_cost)
        table = _extend_and_verify(group, columns, combo, plan)
        if table is not None:
            yield Morphism(group, group, table, _verified=True)


def enumerate_automorphisms(group: FiniteGroup, *,
                            budget: int | None = DEFAULT_PRODUCT_BUDGET
                            ) -> Iterator[Morphism]:
    """Every automorphism exactly once, in deterministic order.

    Candidates must match the generator's order and conjugacy-class size, and
    each prefix of chosen images must generate a subgroup of the same order
    as the corresponding generator prefix (automorphisms are injective on
    subgroups, so this prune is lossless).
    """
    gens = group.small_generating_set()
    plan = group.extension_plan()
    columns = [group.column(g) for g in gens]
    orders = group.element_orders()
    classes = group.conjugacy_classes()

    def size_of(x: int) -> int:
        return classes.sizes[classes.class_of[x]]

    pools = [
        [x for x in range(group.order)
         if orders[x] == orders[g] and size_of(x) == size_of(g)]
        for g in gens
    ]
    prefix_orders = [
        len(group.subgroup_closure(gens[:j + 1])) for j in range(len(gens))
    ]
    tracker = _Budget(budget)
    attempt_cost = group.order * max(1, len(gens))

    def search(depth: int, chosen: tuple[int, ...]) -> Iterator[Morphism]:
        if depth == len(gens):
            tracker.charge(attempt_cost)
            table = _extend_and_verify(group, columns, chosen, plan)
            if table is not None:
                if len(set(table)) != group.order:
                    raise AssertionError("generating images gave a non-bijection")
                yield Morphism(group, group, table, _verified=True)
            return
        want = prefix_orders[depth]
        for cand in pools[depth]:
            tracker.charge(want)
            reached = len(group.subgroup_closure(chosen + (cand,)))
            if reached != want:
                continue
            yield from search(depth + 1, chosen + (cand,))

    yield from search(0, ())
