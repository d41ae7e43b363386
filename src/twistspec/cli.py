"""Command-line surface: info, spectrum, verify, survey.

Exit codes: 0 success, 1 input error (a bad file or flag, or a usage
error), 2 budget exceeded, 3 theorem-battery failure, 4 internal error (a
failed internal consistency check or a table that breaks the homomorphism
law; a survey still writes its report, with the file's error recorded).
Survey reports are byte-identical for identical inputs and flags regardless
of ``--jobs``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import catalog
from .errors import (BudgetExceeded, DefinitionError, NotAHomomorphism,
                     OrderCapExceeded, TwistspecError)
from .group import DEFAULT_ORDER_CAP, FiniteGroup
from .morphism import DEFAULT_PRODUCT_BUDGET
from .spectra import FLAG_NAMES, classify, structure_flags, theorem_battery

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_BATTERY = 3
EXIT_INTERNAL = 4

# Errors that only a bug in twistspec can raise: exit 4.
_INTERNAL_ERRORS = (AssertionError, NotAHomomorphism)


def _positive(text: str) -> int:
    """The ``type`` of every limit flag: an integer of at least 1.  The
    parser reports a rejection as a usage error that names the flag."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _load_group(path: str, order_cap: int) -> FiniteGroup:
    """The group a definition file names; ``catalog.build`` gives it the
    definition's name."""
    return catalog.build(catalog.load(path), order_cap=order_cap)


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label.ljust(width)}  {value}")


def _format_value_map(values: dict[int, int]) -> str:
    inner = ", ".join(str(v) for v in sorted(values))
    mults = " ".join(f"{v}x{values[v]}" for v in sorted(values))
    return f"{{{inner}}}  (multiplicity {mults})"


# -- info -----------------------------------------------------------------

def _cmd_info(args) -> int:
    group = _load_group(args.file, args.order_cap)
    classes = group.conjugacy_classes()
    flags = structure_flags(group)
    if args.json:
        doc = {
            "name": group.name,
            "order": group.order,
            "degree": group.degree,
            "class_number": classes.count,
            "class_sizes": sorted(classes.sizes),
            "center_order": group.center().order,
            "flags": flags,
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    _print_table([
        ("group", group.name or "?"),
        ("order", str(group.order)),
        ("degree", str(group.degree)),
        ("classes", str(classes.count)),
        ("class sizes", " ".join(map(str, sorted(classes.sizes)))),
        ("center order", str(group.center().order)),
        ("flags", " ".join(f"{k}={'yes' if v else 'no'}"
                           for k, v in flags.items())),
    ])
    return EXIT_OK


# -- spectrum ----------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    group = _load_group(args.file, args.order_cap)
    report = classify(group, extended=args.extended, battery=False,
                      budget=args.budget)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
        return EXIT_OK
    rows = [
        ("group", report.name),
        ("order", str(report.order)),
        ("classes", str(report.class_number)),
        ("|Aut|", str(report.aut_count)),
        ("|Out|", str(report.out_order)),
        ("spectrum", _format_value_map(report.spectrum)),
    ]
    if report.extended_spectrum is not None:
        rows.append(("extended", _format_value_map(report.extended_spectrum)))
        rows.append(("|End|", str(report.end_count)))
    for note in report.annotations:
        rows.append(("note", note))
    rows.append(("flags", " ".join(
        f"{k}={'yes' if v else '?' if v is None else 'no'}"
        for k, v in report.flags.items())))
    _print_table(rows)
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def _cmd_verify(args) -> int:
    group = _load_group(args.file, args.order_cap)
    checks = theorem_battery(group, budget=args.budget)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status}  {group.name}  {check.name}"
        if not check.passed:
            failures += 1
            line += f"  witness={json.dumps(check.witness)}"
        print(line)
    return EXIT_OK if failures == 0 else EXIT_BATTERY


# -- survey --------------------------------------------------------------------

_FILTER_INT_KEYS = {"min_order", "max_order"}


def _parse_filter(text: str | None) -> dict:
    if not text:
        return {}
    rules: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise DefinitionError(f"filter term {part!r} is not key=value")
        key, value = part.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in _FILTER_INT_KEYS:
            try:
                rules[key] = int(value)
            except ValueError:
                raise DefinitionError(f"filter {key} needs an integer")
        elif key in FLAG_NAMES:
            if value.lower() not in ("true", "false"):
                raise DefinitionError(f"filter {key} needs true or false")
            rules[key] = value.lower() == "true"
        else:
            raise DefinitionError(f"unknown filter key {key!r}")
    return rules


def _matches(report_doc: dict, rules: dict) -> bool:
    for key, want in rules.items():
        if key == "min_order":
            if report_doc["order"] < want:
                return False
        elif key == "max_order":
            if report_doc["order"] > want:
                return False
        elif report_doc["flags"].get(key) is not want:
            return False
    return True


def _survey_worker(task: tuple) -> dict:
    path, budget, order_cap, battery = task
    name = os.path.basename(path)
    try:
        report = classify(_load_group(path, order_cap), extended=True,
                          battery=battery, budget=budget)
        return {"file": name, "report": report.to_json_dict()}
    except _INTERNAL_ERRORS as exc:
        return {"file": name, "error": f"{type(exc).__name__}: {exc}",
                "internal": True}
    except TwistspecError as exc:
        return {"file": name, "error": f"{type(exc).__name__}: {exc}"}


def _cmd_survey(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise DefinitionError(f"{directory} is not a directory")
    rules = _parse_filter(args.filter)
    out = Path(args.out)
    if out.is_dir():
        raise DefinitionError(f"--out {out} is a directory")
    if not out.parent.is_dir():
        raise DefinitionError(f"--out {out}: no directory {out.parent}")
    # A report written into the directory is not read back as a group.
    # Two resolves, not one per file: each costs a stat per path component.
    report = out.name if out.parent.resolve() == directory.resolve() else None
    files = sorted(str(p) for p in directory.glob("*.json")
                   if p.name != report)
    tasks = [(path, args.budget, args.order_cap, args.battery)
             for path in files]
    # The pool starts all its workers at once, so never more than there
    # are files or CPUs.  Only this branch imports it: the import costs
    # every other command start-up time.
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_survey_worker, tasks))
    else:
        results = [_survey_worker(task) for task in tasks]

    reports = [r["report"] for r in results if "report" in r]
    errors = [{"file": r["file"], "error": r["error"]}
              for r in results if "error" in r]
    reports.sort(key=lambda doc: (doc["order"], doc["name"]))
    included = [doc for doc in reports if _matches(doc, rules)]
    flag_counts = {
        flag: sum(1 for doc in included if doc["flags"].get(flag) is True)
        for flag in FLAG_NAMES
    }
    survey_doc = {
        "schema": 1,
        "tool_version": __version__,
        "filter": args.filter or None,
        "group_count": len(included),
        "groups": included,
        "summary": {
            "flag_counts": flag_counts,
            "errors": sorted(errors, key=lambda e: e["file"]),
        },
    }
    payload = json.dumps(survey_doc, indent=2) + "\n"
    try:
        out.write_text(payload, encoding="utf-8")
    except OSError as exc:
        raise DefinitionError(f"cannot write --out {out}: {exc.strerror}")
    print(f"surveyed {len(files)} files -> {len(included)} groups "
          f"({len(errors)} errors) -> {args.out}")
    if any(r.get("internal") for r in results):
        return EXIT_INTERNAL
    return EXIT_OK


# -- entry point -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise DefinitionError, so they exit 1 like any other
    input error; argparse would exit 2, the budget code.  Subparsers are
    built by the same class."""

    def error(self, message: str):
        raise DefinitionError(f"{message} (see {self.prog} --help)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each
    ``add_argument`` builds a help formatter, which reads the terminal size
    and the environment.  ``parse_args`` leaves it unchanged."""
    parser = _Parser(
        prog="twistspec",
        description="Twisted conjugacy and Reidemeister spectra for finite "
                    "permutation groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def order_cap(p):
        p.add_argument("--order-cap", type=_positive,
                       default=DEFAULT_ORDER_CAP,
                       help="cap on the group order and the degree "
                            f"(default {DEFAULT_ORDER_CAP})")

    def limits(p):
        p.add_argument("--budget", type=_positive,
                       default=DEFAULT_PRODUCT_BUDGET,
                       help="product budget per command "
                            f"(default {DEFAULT_PRODUCT_BUDGET})")
        order_cap(p)

    p_info = sub.add_parser(
        "info", help="order, classes and structure flags",
        description="Order, classes and structure flags.  info sweeps no "
                    "morphisms and takes no product budget; its work is "
                    "bounded by the order cap.")
    p_info.add_argument("file")
    p_info.add_argument("--json", action="store_true")
    order_cap(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_spec = sub.add_parser("spectrum", help="Reidemeister spectrum")
    p_spec.add_argument("file")
    p_spec.add_argument("--extended", action="store_true",
                        help="also sweep all endomorphisms")
    p_spec.add_argument("--json", action="store_true")
    limits(p_spec)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_verify = sub.add_parser("verify", help="run the theorem battery")
    p_verify.add_argument("file")
    limits(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_survey = sub.add_parser("survey", help="classify a directory of groups")
    p_survey.add_argument("directory")
    p_survey.add_argument("--out", required=True)
    p_survey.add_argument("--filter", default=None,
                          help="comma-separated key=value terms; keys are "
                               "flag names plus min_order/max_order")
    p_survey.add_argument("--jobs", type=_positive, default=1,
                          help="worker processes, at most one per file "
                               "and per CPU (default 1)")
    p_survey.add_argument("--battery", action="store_true",
                          help="include the theorem battery per group")
    limits(p_survey)
    p_survey.set_defaults(func=_cmd_survey)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DefinitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceeded, OrderCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
