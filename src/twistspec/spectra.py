"""Reidemeister spectra, group classification flags, and the theorem battery.

The spectrum of a group is the multiset of Reidemeister numbers over all its
automorphisms; the extended spectrum ranges over all endomorphisms.  Spectra
are reported as sorted value -> multiplicity maps: the sets match the usual
definitions and the multiplicities cost nothing extra and help debugging.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import BudgetExceeded
from .group import FiniteGroup
from .morphism import (DEFAULT_PRODUCT_BUDGET, Morphism,
                       enumerate_automorphisms, enumerate_endomorphisms)
from .twisted import induced_class_map, reidemeister_number, reduction_check, twisted_classes

FLAG_NAMES = (
    "abelian", "nilpotent", "perfect", "simple", "quasisimple", "odd_order",
    "trivial_spectrum", "trivial_extended_spectrum", "full_extended_spectrum",
)


@dataclass
class BatteryCheck:
    """One named theorem check with an optional failure witness."""

    name: str
    passed: bool
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        return {"check": self.name, "passed": self.passed,
                "witness": self.witness}


@dataclass
class SpectrumReport:
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
    annotations: list[str] = field(default_factory=list)

    def spectrum_values(self) -> list[int]:
        return sorted(self.spectrum)

    def extended_values(self) -> list[int] | None:
        if self.extended_spectrum is None:
            return None
        return sorted(self.extended_spectrum)

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


def _witness(phi: Morphism, detail: str) -> dict:
    """Failure payload: the morphism's generator images plus a short note."""
    group = phi.target
    return {
        "generator_images": [group.elements[t].to_one_based()
                             for t in phi.generator_images],
        "generator_cycles": [group.elements[t].cycle_string()
                             for t in phi.generator_images],
        "detail": detail,
    }


def spectrum(group: FiniteGroup, *, method: str = "fixed-classes",
             budget: int | None = DEFAULT_PRODUCT_BUDGET) -> dict[int, int]:
    """Reidemeister numbers over all automorphisms, with multiplicities."""
    classes = group.conjugacy_classes()
    counter = Counter(
        reidemeister_number(phi, method, classes)
        for phi in enumerate_automorphisms(group, budget=budget)
    )
    return {v: counter[v] for v in sorted(counter)}


def extended_spectrum(group: FiniteGroup, *, method: str = "fixed-classes",
                      budget: int | None = DEFAULT_PRODUCT_BUDGET
                      ) -> dict[int, int]:
    """Reidemeister numbers over all endomorphisms, with multiplicities."""
    classes = group.conjugacy_classes()
    counter = Counter(
        reidemeister_number(phi, method, classes)
        for phi in enumerate_endomorphisms(group, budget=budget)
    )
    return {v: counter[v] for v in sorted(counter)}


def classify(group: FiniteGroup, name: str | None = None, *,
             extended: bool = True, battery: bool = False,
             method: str = "fixed-classes",
             budget: int | None = DEFAULT_PRODUCT_BUDGET) -> SpectrumReport:
    """Full classification of one group.

    The endomorphism sweep is attempted only when ``extended`` is set; if it
    blows the product budget the extended fields are reported as skipped
    rather than guessed.  The automorphism sweep is mandatory and budget
    errors there propagate.
    """
    classes = group.conjugacy_classes()
    k = classes.count
    annotations: list[str] = []

    endos: list[Morphism] | None = None
    if extended:
        try:
            endos = list(enumerate_endomorphisms(group, budget=budget))
        except BudgetExceeded:
            annotations.append("extended spectrum skipped: budget exceeded")
    if endos is not None:
        autos = [phi for phi in endos if phi.is_automorphism()]
    else:
        autos = list(enumerate_automorphisms(group, budget=budget))

    spec_counter = Counter(reidemeister_number(phi, method, classes)
                           for phi in autos)
    spectrum_map = {v: spec_counter[v] for v in sorted(spec_counter)}
    extended_map = None
    if endos is not None:
        ext_counter = Counter(reidemeister_number(phi, method, classes)
                              for phi in endos)
        extended_map = {v: ext_counter[v] for v in sorted(ext_counter)}

    cp_count = sum(1 for phi in autos if phi.is_class_preserving(classes))
    center_order = group.center().order
    if (len(autos) * center_order) % group.order:
        raise AssertionError("automorphism count incompatible with Inn(G)")
    out_order = len(autos) * center_order // group.order

    trivial_spec = set(spectrum_map) == {k}
    if trivial_spec != (cp_count == len(autos)):
        raise AssertionError(
            "trivial spectrum flag disagrees with the class-preserving count"
        )
    flags: dict[str, bool | None] = {
        **structure_flags(group),
        "odd_order": group.order % 2 == 1,
        "trivial_spectrum": trivial_spec,
        "trivial_extended_spectrum": (
            None if extended_map is None else set(extended_map) == {1, k}
        ),
        "full_extended_spectrum": (
            None if extended_map is None
            else set(extended_map) == set(range(1, k + 1))
        ),
    }

    battery_checks = None
    if battery:
        battery_checks = theorem_battery(group, budget=budget, _endos=endos)

    return SpectrumReport(
        name=name or group.name or f"order{group.order}",
        order=group.order,
        degree=group.degree,
        class_number=k,
        aut_count=len(autos),
        end_count=None if endos is None else len(endos),
        class_preserving_aut_count=cp_count,
        out_order=out_order,
        spectrum=spectrum_map,
        extended_spectrum=extended_map,
        flags=flags,
        theorem_battery=battery_checks,
        annotations=annotations,
    )


def theorem_battery(group: FiniteGroup, *,
                    budget: int | None = DEFAULT_PRODUCT_BUDGET,
                    _endos: list[Morphism] | None = None
                    ) -> list[BatteryCheck]:
    """Run every applicable structural check over the full endomorphism sweep.

    Counts are computed by both methods throughout; failures carry the
    witness morphism's generator images.  Failures are data, not errors.
    """
    classes = group.conjugacy_classes()
    k = classes.count
    endos = _endos if _endos is not None else list(
        enumerate_endomorphisms(group, budget=budget)
    )

    agree_fail = orbstab_fail = reduction_fail = parity_fail = None
    first_by_value: dict[int, Morphism] = {}
    first_auto_by_value: dict[int, Morphism] = {}
    non_dichotomy = None

    for phi in endos:
        partition = twisted_classes(phi)
        orbit_count = partition.count
        fixed_count = induced_class_map(phi, classes).fixed_count
        if orbit_count != fixed_count and agree_fail is None:
            agree_fail = _witness(
                phi, f"orbits {orbit_count} != fixed classes {fixed_count}"
            )
        value = orbit_count
        first_by_value.setdefault(value, phi)
        if phi.is_automorphism():
            first_auto_by_value.setdefault(value, phi)
        if (partition.identity_class_size() * phi.fixed_point_count()
                != group.order) and orbstab_fail is None:
            orbstab_fail = _witness(phi, "identity class size times fixed "
                                         "subgroup order misses the order")
        if not reduction_check(phi) and reduction_fail is None:
            reduction_fail = _witness(phi, "count changed on the injective "
                                           "quotient")
        if group.order % 2 == 1 and value % 2 == 0 and parity_fail is None:
            parity_fail = _witness(phi, f"even count {value} in an odd-order "
                                        "group")
        if not (phi.is_trivial() or phi.is_automorphism()):
            non_dichotomy = non_dichotomy or phi

    checks = [
        BatteryCheck("orbit-vs-fixed-classes", agree_fail is None, agree_fail),
        BatteryCheck("orbit-stabiliser-identity", orbstab_fail is None,
                     orbstab_fail),
        BatteryCheck("reduction-to-injective", reduction_fail is None,
                     reduction_fail),
    ]
    if group.order % 2 == 1:
        checks.append(BatteryCheck("odd-order-parity", parity_fail is None,
                                   parity_fail))
    spectrum_hit = (k - 1) in first_auto_by_value
    checks.append(BatteryCheck(
        "spectrum-excludes-k-minus-1", not spectrum_hit,
        _witness(first_auto_by_value[k - 1],
                 f"automorphism with count {k - 1}")
        if spectrum_hit else None,
    ))
    if group.order > 2 and (group.is_nilpotent() or group.is_quasisimple()):
        extended_hit = (k - 1) in first_by_value
        checks.append(BatteryCheck(
            "extended-excludes-k-minus-1", not extended_hit,
            _witness(first_by_value[k - 1], f"endomorphism with count {k - 1}")
            if extended_hit else None,
        ))
    if group.is_quasisimple():
        checks.append(BatteryCheck(
            "quasisimple-dichotomy", non_dichotomy is None,
            _witness(non_dichotomy, "neither trivial nor bijective")
            if non_dichotomy is not None else None,
        ))
    return checks
