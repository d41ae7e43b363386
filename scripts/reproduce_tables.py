#!/usr/bin/env python3
"""Reproduce the two small-order classification tables over the shipped
catalog: groups whose spectrum collapses to {k(G)}, and groups whose
endomorphisms realize every count from 1 to k(G)."""

import sys
import time

from twistspec.catalog import build, shipped_catalog
from twistspec.cli import _INTERNAL_ERRORS, _Parser, _positive
from twistspec.errors import BudgetExceeded, DefinitionError
from twistspec.morphism import DEFAULT_PRODUCT_BUDGET
from twistspec.spectra import classify


def main() -> None:
    parser = _Parser(description=__doc__)
    parser.add_argument("--budget", type=_positive,
                        default=DEFAULT_PRODUCT_BUDGET)
    parser.add_argument("--max-order", type=_positive, default=120)
    try:
        args = parser.parse_args()
    except DefinitionError as exc:
        # A usage error exits 1, as on the command line.
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)

    t0 = time.monotonic()
    reports = []
    for defn in shipped_catalog():
        group = build(defn)
        if group.order > args.max_order:
            continue
        try:
            reports.append(classify(group, budget=args.budget))
        except BudgetExceeded as exc:
            # Exit as the command line does when a budget runs out.
            print(f"error: {defn.name}: {exc}", file=sys.stderr)
            sys.exit(2)
        except _INTERNAL_ERRORS as exc:
            # Exit 4, as the command line does on an internal error.
            print(f"internal error: {defn.name}: {exc}", file=sys.stderr)
            sys.exit(4)
    reports.sort(key=lambda r: (r.order, r.name))

    print(f"classified {len(reports)} groups in "
          f"{time.monotonic() - t0:.1f}s\n")

    print("groups with trivial Reidemeister spectrum")
    print(f"{'group':<12} {'order':>5} {'|Out|':>5} {'k':>4}")
    for r in reports:
        if r.flags["trivial_spectrum"]:
            print(f"{r.name:<12} {r.order:>5} {r.out_order:>5} "
                  f"{r.class_number:>4}")

    print("\ngroups with full extended Reidemeister spectrum")
    print(f"{'group':<12} {'order':>5} {'k':>4}")
    for r in reports:
        if r.flags["full_extended_spectrum"]:
            print(f"{r.name:<12} {r.order:>5} {r.class_number:>4}")

    print("\ngroups with trivial extended Reidemeister spectrum")
    print(f"{'group':<12} {'order':>5} {'k':>4}")
    for r in reports:
        if r.flags["trivial_extended_spectrum"]:
            print(f"{r.name:<12} {r.order:>5} {r.class_number:>4}")


if __name__ == "__main__":
    main()
