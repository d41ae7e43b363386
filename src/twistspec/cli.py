"""Command-line surface: info, spectrum, verify, survey.

Exit codes: 0 success, 1 input error, 2 budget exceeded, 3 theorem-battery
failure.  Survey reports are byte-identical for identical inputs and flags
regardless of ``--jobs``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from . import catalog
from .errors import (BudgetExceeded, DefinitionError, OrderCapExceeded,
                     TwistspecError)
from .group import DEFAULT_ORDER_CAP, FiniteGroup
from .morphism import DEFAULT_PRODUCT_BUDGET
from .spectra import FLAG_NAMES, classify, structure_flags, theorem_battery

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_BATTERY = 3

_METHODS = {"fixed": "fixed-classes", "orbits": "orbits", "checked": "checked"}
BUDGET_ENV = "TWISTSPEC_BUDGET"
ORDER_CAP_ENV = "TWISTSPEC_ORDER_CAP"


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise DefinitionError(f"{name} must be an integer, got {raw!r}")


def _positive(value: int, name: str) -> int:
    if value < 1:
        raise DefinitionError(f"{name} must be a positive integer, got {value}")
    return value


def _resolve_limit(flag_value: int | None, flag: str, env: str,
                   default: int) -> int:
    """The flag if given, else the environment variable, else the default."""
    if flag_value is not None:
        return _positive(flag_value, flag)
    env_value = _env_int(env)
    return default if env_value is None else _positive(env_value, env)


def _load_group(path: str, order_cap: int) -> tuple[catalog.GroupDefinition, FiniteGroup]:
    defn = catalog.load(path)
    return defn, catalog.build(defn, order_cap=order_cap)


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
    _, group = _load_group(args.file, args.order_cap)
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
    defn, group = _load_group(args.file, args.order_cap)
    report = classify(group, name=defn.name, extended=args.extended,
                      battery=False, method=_METHODS[args.method],
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
    defn, group = _load_group(args.file, args.order_cap)
    checks = theorem_battery(group, budget=args.budget)
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status}  {defn.name}  {check.name}"
        if not check.passed:
            failures += 1
            line += f"  witness={json.dumps(check.witness)}"
        print(line)
    if not checks:
        print(f"PASS  {defn.name}  (no applicable checks)")
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
    path, budget, order_cap, battery, method = task
    name = os.path.basename(path)
    try:
        defn, group = _load_group(path, order_cap)
        report = classify(group, name=defn.name, extended=True,
                          battery=battery, method=method, budget=budget)
        return {"file": name, "report": report.to_json_dict()}
    except TwistspecError as exc:
        return {"file": name, "error": f"{type(exc).__name__}: {exc}"}


def _cmd_survey(args) -> int:
    _positive(args.jobs, "--jobs")
    directory = Path(args.directory)
    if not directory.is_dir():
        raise DefinitionError(f"{directory} is not a directory")
    rules = _parse_filter(args.filter)
    files = sorted(str(p) for p in directory.glob("*.json"))
    tasks = [(path, args.budget, args.order_cap,
              args.battery, _METHODS[args.method]) for path in files]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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
    Path(args.out).write_text(payload, encoding="utf-8")
    print(f"surveyed {len(files)} files -> {len(included)} groups "
          f"({len(errors)} errors) -> {args.out}")
    return EXIT_OK


# -- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistspec",
        description="Twisted conjugacy and Reidemeister spectra for finite "
                    "permutation groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget", type=int, default=None,
                       help="product budget per enumeration "
                            f"(default {DEFAULT_PRODUCT_BUDGET}, "
                            f"env {BUDGET_ENV})")
        p.add_argument("--order-cap", type=int, default=None,
                       help="group materialization cap "
                            f"(default {DEFAULT_ORDER_CAP}, "
                            f"env {ORDER_CAP_ENV})")

    p_info = sub.add_parser("info", help="order, classes and structure flags")
    p_info.add_argument("file")
    p_info.add_argument("--json", action="store_true")
    common(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_spec = sub.add_parser("spectrum", help="Reidemeister spectrum")
    p_spec.add_argument("file")
    p_spec.add_argument("--extended", action="store_true",
                        help="also sweep all endomorphisms")
    p_spec.add_argument("--method", choices=sorted(_METHODS), default="fixed")
    p_spec.add_argument("--json", action="store_true")
    common(p_spec)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_verify = sub.add_parser("verify", help="run the theorem battery")
    p_verify.add_argument("file")
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_survey = sub.add_parser("survey", help="classify a directory of groups")
    p_survey.add_argument("directory")
    p_survey.add_argument("--out", required=True)
    p_survey.add_argument("--filter", default=None,
                          help="comma-separated key=value terms; keys are "
                               "flag names plus min_order/max_order")
    p_survey.add_argument("--jobs", type=int, default=1)
    p_survey.add_argument("--battery", action="store_true",
                          help="include the theorem battery per group")
    p_survey.add_argument("--method", choices=sorted(_METHODS),
                          default="fixed")
    common(p_survey)
    p_survey.set_defaults(func=_cmd_survey)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.budget = _resolve_limit(args.budget, "--budget", BUDGET_ENV,
                                     DEFAULT_PRODUCT_BUDGET)
        args.order_cap = _resolve_limit(args.order_cap, "--order-cap",
                                        ORDER_CAP_ENV, DEFAULT_ORDER_CAP)
        return args.func(args)
    except DefinitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (BudgetExceeded, OrderCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
