"""The benchmark workloads: which commands run, on which inputs, and how
their outputs are checked.

Arguments may hold placeholders that each pass process resolves:
``@DIR`` is the directory the pass wrote its definition files to, ``@OUT``
a scratch output file of the pass, and ``@def:NAME`` the definition file of
the group named NAME.

Every command is checked twice: against the golden output recorded when the
benchmark was defined (``golden/``, written by ``make_golden.py``), and
against known mathematics that does not depend on any recorded output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import load_definitions

GOLDEN = Path(__file__).resolve().parent / "golden"

# Among the catalog groups, exactly these have an extended spectrum equal to
# all of {1, ..., k(G)}.
FULL_EXTENDED = {"Z1", "Z2", "S3", "A4", "M9"}

Check = Callable[[str, dict], list]


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple
    checks: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str
    commands: tuple
    timeout_s: float


def _json_field(key: str, want) -> Check:
    def check(stdout: str, files: dict) -> list:
        got = json.loads(stdout).get(key)
        return [] if got == want else [f"{key} is {got!r}, expected {want!r}"]
    return check


def _full_extended_names(stdout: str, files: dict) -> list:
    report = json.loads(files["@OUT"])
    names = {doc["name"] for doc in report["groups"]
             if doc["flags"]["full_extended_spectrum"] is True}
    if names != FULL_EXTENDED:
        return [f"full extended spectrum holds for {sorted(names)}, "
                f"expected {sorted(FULL_EXTENDED)}"]
    return []


def _all_pass(stdout: str, files: dict) -> list:
    bad = [line for line in stdout.splitlines() if not line.startswith("PASS")]
    return [f"battery line {line!r}" for line in bad[:3]]


def survey() -> Workload:
    return Workload(
        "survey", "catalog",
        (Command("survey", ("survey", "@DIR", "--out", "@OUT", "--jobs", "1"),
                 (_full_extended_names,)),),
        timeout_s=60.0)


def verify() -> Workload:
    names = [doc["name"] for doc in load_definitions("catalog")]
    return Workload(
        "verify", "catalog",
        tuple(Command(f"verify {name}", ("verify", f"@def:{name}"), (_all_pass,))
              for name in names),
        timeout_s=60.0)


def ladder() -> Workload:
    return Workload(
        "ladder", "ladder",
        (Command("info S6", ("info", "@def:S6", "--json"),
                 (_json_field("class_number", 11),
                  _json_field("center_order", 1))),
         Command("spectrum A6", ("spectrum", "@def:A6", "--json"),
                 (_json_field("aut_count", 1440),)),
         Command("spectrum --extended Z2^4",
                 ("spectrum", "@def:Z2xZ2xZ2xZ2", "--extended", "--json"),
                 (_json_field("end_count", 65536),))),
        timeout_s=90.0)


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "survey": survey, "verify": verify, "ladder": ladder,
}


def load_golden(workload: Workload) -> dict:
    """``{command key: {"exit": code, "stdout": text, "files": {...}}}``.

    In the stored file, ``files`` maps a placeholder to the name of a file
    under ``golden/`` holding the expected bytes; they are read in here.
    """
    golden = json.loads((GOLDEN / f"{workload.name}.json").read_bytes())
    for want in golden.values():
        want["files"] = {name: (GOLDEN / stored).read_bytes().decode("utf-8")
                         for name, stored in want.get("files", {}).items()}
    return golden


def check_command(command: Command, record: dict, golden: dict) -> list:
    """Reasons a finished command counts as failed; empty when it passed."""
    if record["status"] != "ok":
        last = record.get("stderr", "").strip().splitlines()[-1:]
        return [": ".join([record["status"], *last])]
    want = golden.get(command.key)
    if want is None:
        return ["no golden output"]
    problems = []
    if record["exit"] != want["exit"]:
        problems.append(f"exit {record['exit']}, expected {want['exit']}")
    if record["stdout"] != want["stdout"]:
        problems.append("stdout differs from the golden")
    for name, text in want.get("files", {}).items():
        if record["files"].get(name) != text:
            problems.append(f"{name} differs from the golden")
    for check in command.checks:
        try:
            problems.extend(check(record["stdout"], record["files"]))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return problems
