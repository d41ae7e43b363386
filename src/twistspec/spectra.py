"""Reidemeister spectra, group classification flags, and the theorem battery.

The spectrum of a group is the multiset of Reidemeister numbers over all its
automorphisms; the extended spectrum ranges over all endomorphisms.  Spectra
are reported as sorted value -> multiplicity maps: the sets match the usual
definitions and the multiplicities cost nothing extra and help debugging.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import NamedTuple, Sequence

from .errors import BudgetExceeded
from .group import FiniteGroup, orbits
from .morphism import (_END_SWEEP, DEFAULT_PRODUCT_BUDGET, _Budget,
                       _fixed_points, _pools, _search)
from .twisted import _fixed_count, _quotient_count

FLAG_NAMES = (
    "abelian", "nilpotent", "perfect", "simple", "quasisimple", "odd_order",
    "trivial_spectrum", "trivial_extended_spectrum", "full_extended_spectrum",
)


class BatteryCheck(NamedTuple):
    """One named theorem check with an optional failure witness."""

    name: str
    passed: bool
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        return {"check": self.name, "passed": self.passed,
                "witness": self.witness}


class SpectrumReport(NamedTuple):
    """Spectra, classification flags and battery results for one group."""

    name: str
    order: int
    degree: int
    class_number: int
    aut_count: int
    end_count: int | None
    class_preserving_aut_count: int
    out_order: int
    spectrum: dict[int, int]
    extended_spectrum: dict[int, int] | None
    flags: dict[str, bool | None]
    theorem_battery: list[BatteryCheck] | None = None
    annotations: tuple[str, ...] = ()

    @property
    def class_preserving_out_order(self) -> int:
        """Class-preserving automorphisms modulo inner ones, as a count.

        Inner automorphisms are always class-preserving, so this is a whole
        number; the subgroup structure behind it is not computed.
        Derived: |Inn| = aut_count / out_order.
        """
        inner = self.aut_count // self.out_order
        return self.class_preserving_aut_count // inner

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "degree": self.degree,
            "class_number": self.class_number,
            "aut_count": self.aut_count,
            "end_count": self.end_count,
            "class_preserving_aut_count": self.class_preserving_aut_count,
            "class_preserving_out_order": self.class_preserving_out_order,
            "out_order": self.out_order,
            "spectrum": [[v, self.spectrum[v]] for v in sorted(self.spectrum)],
            "extended_spectrum": (
                None if self.extended_spectrum is None else
                [[v, self.extended_spectrum[v]]
                 for v in sorted(self.extended_spectrum)]
            ),
            "flags": {flag: self.flags.get(flag) for flag in FLAG_NAMES},
            "theorem_battery": (
                None if self.theorem_battery is None else
                [check.to_json_dict() for check in self.theorem_battery]
            ),
            "annotations": list(self.annotations),
        }


def structure_flags(group: FiniteGroup) -> dict[str, bool]:
    """The structure flags shared by ``classify`` and ``twistspec info``."""
    return {
        "abelian": group.is_abelian(),
        "nilpotent": group.is_nilpotent(),
        "perfect": group.is_perfect(),
        "simple": group.is_simple(),
        "quasisimple": group.is_quasisimple(),
    }


def _witness(group: FiniteGroup, images: Sequence[int], detail: str) -> dict:
    """Failure payload: the images of the declared generators under the
    failing morphism, plus a short note."""
    return {
        "generator_images": [group.elements[t].to_one_based()
                             for t in images],
        "generator_cycles": [group.elements[t].cycle_string()
                             for t in images],
        "detail": detail,
    }


def _fold(group: FiniteGroup, automorphisms: bool,
          tracker: _Budget) -> tuple[Counter, Counter]:
    """Weighted counters of the Reidemeister numbers of the automorphisms
    and of all the morphisms of one End (or Aut) sweep, as its engine fills
    them.  Every morphism of an Aut sweep is bijective, so its two counters
    are equal and its callers read the first; an abelian group's count
    fills End(G)'s into the second whichever sweep is asked for.  The sweep
    or the count runs the scan, and each charges the command's ``tracker``
    in its own phase.

    An abelian group, whose search generators are a basis, is counted over
    image subgroups instead (``_count_abelian``).  Otherwise R is read off
    the search's live table by ``_fixed_count``, the number of classes c
    whose representative phi maps back into c: k reads with no copy and no
    Morphism, asserting that the identity class is fixed and that an
    automorphism permutes the classes.  The orbit count is cross-checked by
    the battery, which compares both counts on every representative.
    """
    if group.is_abelian():
        return _count_abelian(group, tracker)
    classes = group.conjugacy_classes()
    spec, ext = Counter(), Counter()
    for table, weight, bijective in _search(group, automorphisms, tracker):
        value = _fixed_count(table, classes, bijective)
        ext[value] += weight
        if bijective:
            spec[value] += weight
    return spec, ext


def _count_abelian(group: FiniteGroup, tracker: _Budget
                   ) -> tuple[Counter, Counter]:
    """``_fold``'s counters for an abelian group, counted over image
    subgroups instead of endomorphisms; its search generators ``gens`` are
    a basis (``FiniteGroup.small_generating_set``).

    Every class is one element, so R(phi) = |Fix phi| = |G| / |im psi| for
    psi(x) = x^-1 phi(x), and psi runs over End(G) as phi does.  G is the
    direct product of the cyclic groups <g_j>, so any images d_j whose
    orders divide those of the g_j are psi(g_j) for exactly one
    endomorphism: the pools of ``morphism._pools``.  R depends only on
    K = <d_1, ..., d_n>, so the count runs over the states
    K_j = <d_1, ..., d_j> with the number of prefixes that reach each.
    phi(g_j) = g_j d_j, and phi is an automorphism exactly when it is
    injective on every H_j = <g_1, ..., g_j>, that is, when
    L_j = phi(H_j) has |H_j| members; a state is the pair (K_j, L_j), with
    L_j = 0 once phi is not injective.  Subgroups are bitmasks over element
    indices; each join <K, c> is built once per call.

    The last generator g_n makes no states.  |<K, d>| = |K| r_K(d), where
    the relative order r_K(d) is the least i >= 1 with d^i in K, and
    <L, g_n d> = G exactly when r_L(g_n d) = ord(g_n), since |L| = |H_{n-1}|.
    So each K of the last states gets one bitmask over the last pool per
    value |G| / (|K| r_K(d)), each L != 0 one bitmask of the candidates
    that keep phi bijective, and a state adds its weight times the
    popcounts of these masks and of their intersections.

    After the scan ``tracker`` is charged states times candidates per
    depth, each state as it is made, the size of each join and the column
    reads for each relative order, in the phase "the abelian count".  The End
    multiplicities must sum to the product of the pool sizes, which is
    |End(G)|, and only the identity has R = |G|.
    """
    gens = group.small_generating_set(tracker)
    tracker.phase = "the abelian count"
    *inner, last = gens
    pools = _pools(group, gens, False)
    members = {1: (0,)}  # a subgroup's bitmask -> its members, identity first
    joins: dict[tuple[int, int], int] = {}

    def join(mask: int, c: int) -> int:
        """The bitmask of <K, c>: K and its cosets c^i K until c^i is in K."""
        if mask >> c & 1:
            return mask
        joined = joins.get((mask, c))
        if joined is None:
            column, layer = group.column(c), members[mask]
            found, joined = list(layer), mask
            while True:
                layer = [column[x] for x in layer]  # the coset c^i K
                if mask >> layer[0] & 1:
                    break
                found += layer
                joined |= sum(1 << x for x in layer)
            tracker.charge(len(found))
            members[joined] = tuple(found)
            joins[mask, c] = joined
        return joined

    orders = group.element_orders()
    states = Counter({(1, 1): 1})
    h_order = 1
    # Each state is charged the candidates it will try when it is made, so
    # a count that outgrows the budget stops before its states fill memory.
    sizes = [len(pool) for pool in pools]
    tracker.charge(sizes[0])
    for g, pool, after in zip(inner, pools, sizes[1:]):
        h_order *= orders[g]
        shift = group.column(g)
        images = [shift[d] for d in pool]  # phi(g) = g d
        k_rows: dict[int, list[int]] = {}
        l_rows = {0: [0] * len(pool)}
        grown: Counter = Counter()
        for (k, l), weight in states.items():
            if k not in k_rows:
                k_rows[k] = [join(k, d) for d in pool]
            if l not in l_rows:
                l_rows[l] = [m if m.bit_count() == h_order else 0
                             for m in (join(l, c) for c in images)]
            made = len(grown)
            for pair, count in Counter(zip(k_rows[k], l_rows[l])).items():
                grown[pair] += weight * count
            tracker.charge((len(grown) - made) * after)
        states = grown

    pool = pools[-1]
    shift = group.column(last)
    columns = [(d, group.column(d)) for d in pool]
    image_columns = [(c, group.column(c)) for c in (shift[d] for d in pool)]

    def relative_orders(mask: int, elements: list[tuple[int, list[int]]]
                        ) -> list[int]:
        """r(c), the least i >= 1 with c^i in ``mask``, for each
        ``(c, column(c))`` of ``elements``."""
        found = []
        for c, column in elements:
            x, i = c, 1
            while not mask >> x & 1:
                x, i = column[x], i + 1
            found.append(i)
        tracker.charge(sum(found) - len(found))  # the column reads made
        return found

    value_masks: dict[int, dict[int, int]] = {}
    bijective = {0: 0}
    spec, ext = Counter(), Counter()
    for (k, l), weight in states.items():
        masks = value_masks.get(k)
        if masks is None:
            masks = value_masks[k] = {}
            k_order = k.bit_count()
            for p, r in enumerate(relative_orders(k, columns)):
                value = group.order // (k_order * r)
                masks[value] = masks.get(value, 0) | 1 << p
        keep = bijective.get(l)
        if keep is None:
            keep = bijective[l] = sum(
                1 << p for p, r in enumerate(relative_orders(l, image_columns))
                if r == orders[last])
        for value, mask in masks.items():
            ext[value] += weight * mask.bit_count()
            both = (mask & keep).bit_count()
            if both:  # a zero entry would read as a spectrum value
                spec[value] += weight * both
    if sum(ext.values()) != prod(sizes):
        raise AssertionError("endomorphism multiplicities miss |End(G)|")
    if not ext[group.order] == spec[group.order] == 1:
        raise AssertionError("a morphism other than the identity has R = |G|")
    return spec, ext


def _sorted_map(counter: Counter) -> dict[int, int]:
    return {v: counter[v] for v in sorted(counter)}


def spectrum(group: FiniteGroup, *,
             budget: int | None = DEFAULT_PRODUCT_BUDGET) -> dict[int, int]:
    """Reidemeister numbers over all automorphisms, with multiplicities."""
    return _sorted_map(_fold(group, True, _Budget(budget))[0])


def extended_spectrum(group: FiniteGroup, *,
                      budget: int | None = DEFAULT_PRODUCT_BUDGET
                      ) -> dict[int, int]:
    """Reidemeister numbers over all endomorphisms, with multiplicities."""
    return _sorted_map(_fold(group, False, _Budget(budget))[1])


def classify(group: FiniteGroup, *, extended: bool = True,
             battery: bool = False,
             budget: int | None = DEFAULT_PRODUCT_BUDGET) -> SpectrumReport:
    """Full classification of one group.

    Spectra come from ``_fold``: one weighted sweep over Inn(G)-orbits,
    folded from the search's live tables as they are filled, with no
    Morphism built, or, for an abelian group with independent search
    generators, a count over image subgroups.  One product budget of
    ``budget`` covers the command: the generating-set scan, then the
    endomorphism sweep (or count), attempted only when ``extended`` is set,
    or else the automorphism sweep.  If the endomorphism sweep blows the
    budget the extended fields are reported as skipped rather than
    guessed, and the automorphism sweep, whose budget errors propagate,
    gives the spectrum under a fresh budget of the same limit.  A scan or
    an abelian count that runs out fails the command: the scan is the
    Aut sweep's too, and the count gives both spectra at once.  With
    ``battery`` the one sweep is the battery's sweep of the endomorphisms
    (``_battery``, the same live tables, never the abelian count), which
    folds the spectra from its fixed-class counts and charges its orbit
    passes to the same budget; budget errors propagate.  An automorphism
    fixes every class exactly when its count is k, so the class-preserving
    automorphisms are the spectrum's multiplicity of k.
    """
    k = group.class_number()
    annotations: list[str] = []

    tracker = _Budget(budget)
    battery_checks = tally = extended_map = None
    if battery:
        battery_checks, tally = _battery(group, tracker)
    elif extended:
        try:
            tally = _fold(group, False, tracker)
        except BudgetExceeded:
            if tracker.phase != _END_SWEEP:  # the scan or the abelian count
                raise
            annotations.append("extended spectrum skipped: budget exceeded")
            tracker = _Budget(budget)  # the Aut fold's fresh allowance
    if tally is None:
        tally = _fold(group, True, tracker)
    elif extended:
        extended_map = _sorted_map(tally[1])
    spec_counter, ext_counter = tally
    spectrum_map = _sorted_map(spec_counter)
    aut_count = sum(spec_counter.values())

    center_order = group.center().order
    if (aut_count * center_order) % group.order:
        raise AssertionError("automorphism count incompatible with Inn(G)")
    out_order = aut_count * center_order // group.order

    flags: dict[str, bool | None] = {
        **structure_flags(group),
        "odd_order": group.order % 2 == 1,
        "trivial_spectrum": set(spectrum_map) == {k},
        "trivial_extended_spectrum": (
            None if extended_map is None else set(extended_map) == {1, k}
        ),
        "full_extended_spectrum": (
            None if extended_map is None
            else set(extended_map) == set(range(1, k + 1))
        ),
    }

    return SpectrumReport(
        name=group.name or f"order{group.order}",
        order=group.order,
        degree=group.degree,
        class_number=k,
        aut_count=aut_count,
        end_count=None if extended_map is None else sum(ext_counter.values()),
        class_preserving_aut_count=spec_counter[k],
        out_order=out_order,
        spectrum=spectrum_map,
        extended_spectrum=extended_map,
        flags=flags,
        theorem_battery=battery_checks,
        annotations=tuple(annotations),
    )


def theorem_battery(group: FiniteGroup, *,
                    budget: int | None = DEFAULT_PRODUCT_BUDGET
                    ) -> list[BatteryCheck]:
    """Run every applicable structural check over the endomorphisms, one
    per Inn(G)-orbit.

    Each check holds for all of phi's orbit at once: R(tau_h . phi) = R(phi),
    the kernel tower N of tau_h . phi is phi's and the map it induces on
    G/N differs by an inner automorphism, tau_h . phi is trivial or
    bijective exactly when phi is, and the parity and k - 1 checks read only
    R values.  The invariance of R is itself checked under
    ``orbit-vs-fixed-classes``: for each representative of weight > 1 and
    each declared generator s, tau_{s^-1} . phi must have phi's count,
    unless it is phi itself.  Counts are computed by both methods throughout.
    ``orbit-stabiliser-identity`` (|[1]| * |Fix phi| = |G|) is checked here
    and nowhere else in the package.  ``reduction-to-injective`` compares
    the fixed-class count with R of the induced map on G/N, counted on the
    classes of G/N (``twisted.reduction_check``); an automorphism is its
    own reduction and builds no tower.  A failure carries the first
    failing representative in sweep order as its witness.  Failures are
    data, not errors.  One product budget of ``budget`` covers the
    generating-set scan, the sweep, every orbit pass and quotient count.
    ``classify(..., battery=True)`` folds its spectra from this same sweep.
    """
    return _battery(group, _Budget(budget))[0]


def _battery(group: FiniteGroup, tracker: _Budget
             ) -> tuple[list[BatteryCheck], tuple[Counter, Counter]]:
    """``theorem_battery``'s checks, and ``_fold``'s counters of the
    fixed-class counts, folded from the same sweep.  Which checks apply is
    decided before the sweep, from the order and the group's own nilpotent
    and quasisimple flags; ``fail`` builds no witness for any other check.

    Like ``_fold`` it reads the live tables of ``_search`` and builds no
    Morphism; a witness is built from the table's generator images at the
    first failure of each check.  ``orbits`` over the group's twisted maps,
    as ``twisted.twisted_classes`` counts them, gives each representative's
    count and the size of its identity's class; ``twisted._quotient_count``
    reads its count on G/N off its tower's entry.  The inner twists are the
    conjugation columns x -> s^-1 x s, that is tau_{s^-1}; tau_{s^-1} . phi
    is taken by its generator images, and is not counted again when they
    are phi's own.

    After the generating-set scan, the sweep's nodes and every orbit pass
    charge ``tracker`` in the phase "the battery"; a pass is charged |G|
    times the declared generators, one read of each twisted map per point,
    and a quotient count |G|, one squaring of phi's table; tower builds are
    not charged.
    """
    names = ["orbit-vs-fixed-classes", "orbit-stabiliser-identity",
             "reduction-to-injective"]
    if group.order % 2 == 1:
        names.append("odd-order-parity")
    names.append("spectrum-excludes-k-minus-1")
    if group.order > 2 and (group.is_nilpotent() or group.is_quasisimple()):
        names.append("extended-excludes-k-minus-1")
    if group.is_quasisimple():
        names.append("quasisimple-dichotomy")
    classes = group.conjugacy_classes()
    k = classes.count
    gens = group.generator_indices()
    twists = group._conjugation_columns()
    # The witness of each reported check's first failure, by check name.
    failures: dict[str, dict] = {}

    def fail(name: str, detail: str) -> None:
        if name in names and name not in failures:
            failures[name] = _witness(group, images, detail)

    spec, ext = Counter(), Counter()
    pass_cost = group.order * len(gens)

    for table, weight, automorphism in _search(group, False, tracker,
                                               "the battery"):
        images = [table[s] for s in gens]
        tracker.charge(pass_cost)
        twisted = orbits(group.order, group._twisted_maps(images))
        value, identity = twisted.count, twisted.identity_class_size()
        fixed_count = _fixed_count(table, classes, automorphism)
        ext[fixed_count] += weight
        if automorphism:
            spec[fixed_count] += weight
        if "orbit-vs-fixed-classes" not in failures:
            if value != fixed_count:
                fail("orbit-vs-fixed-classes",
                     f"orbits {value} != fixed classes {fixed_count}")
            elif weight > 1:
                for twist in twists:
                    moved_images = [twist[c] for c in images]
                    if moved_images == images:
                        continue
                    tracker.charge(pass_cost)
                    moved = orbits(group.order,
                                   group._twisted_maps(moved_images)).count
                    if moved != fixed_count:
                        fail("orbit-vs-fixed-classes",
                             f"orbits {moved} of an inner twist != fixed "
                             f"classes {fixed_count}")
                        break
        if identity * _fixed_points(table) != group.order:
            fail("orbit-stabiliser-identity", "identity class size times "
                 "fixed subgroup order misses the order")
        if not automorphism:
            tracker.charge(group.order)
            if _quotient_count(group, table) != fixed_count:
                fail("reduction-to-injective",
                     "count changed on the injective quotient")
        if value % 2 == 0:
            fail("odd-order-parity",
                 f"even count {value} in an odd-order group")
        if value == k - 1:
            fail("extended-excludes-k-minus-1",
                 f"endomorphism with count {k - 1}")
            if automorphism:
                fail("spectrum-excludes-k-minus-1",
                     f"automorphism with count {k - 1}")
        # phi is trivial exactly when every generator maps to 1.
        if not automorphism and any(images):
            fail("quasisimple-dichotomy", "neither trivial nor bijective")

    checks = [BatteryCheck(name, name not in failures, failures.get(name))
              for name in names]
    return checks, (spec, ext)
