#!/usr/bin/env python3
"""Freeze the benchmark inputs and record the golden outputs.

    python3 perfbench/make_golden.py

Writes ``data/catalog.json`` (the 51 shipped catalog definitions) and
``data/ladder.json`` (S6, A6 and Z2^4) from the package's catalog builders,
then runs one untraced pass of every workload at the default seed and stores
each command's exit code and output under ``golden/``.  Run it only on a
commit whose answers are trusted: every later run is checked against these
files.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
from inputs import DATA, DEFAULT_SEED, seeded_definitions
from workloads import GOLDEN, WORKLOADS


def freeze_inputs() -> None:
    sys.path.insert(0, str(run.SRC))
    from twistspec import catalog

    sets = {
        "catalog": catalog.shipped_catalog(),
        "ladder": [catalog.symmetric(6), catalog.alternating(6),
                   catalog.abelian(2, 2, 2, 2)],
    }
    DATA.mkdir(exist_ok=True)
    for name, definitions in sets.items():
        docs = [defn.to_json_dict() for defn in definitions]
        (DATA / f"{name}.json").write_text(json.dumps(docs, indent=1) + "\n",
                                           encoding="utf-8")


def record_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, make in WORKLOADS.items():
        workload = make()
        definitions = seeded_definitions(workload.inputs, DEFAULT_SEED)
        work = run.WORK / "golden" / name
        shutil.rmtree(work, ignore_errors=True)
        record = run.spawn(workload, definitions, "plain", work,
                           time.monotonic() + run.RUN_LIMIT_S)
        golden = {}
        for command, outcome in zip(workload.commands, record["commands"]):
            if outcome["status"] != "ok":
                raise SystemExit(f"{command.key}: {outcome['status']}")
            entry = {"exit": outcome["exit"], "stdout": outcome["stdout"]}
            if "@OUT" in outcome["files"]:
                stored = f"{name}_report.json"
                (GOLDEN / stored).write_bytes(outcome["files"]["@OUT"].encode())
                entry["files"] = {"@OUT": stored}
            golden[command.key] = entry
        (GOLDEN / f"{name}.json").write_text(json.dumps(golden, indent=1) + "\n",
                                             encoding="utf-8")
        print(f"{name}: {len(golden)} commands, {record['wall_s']:.2f} s")


if __name__ == "__main__":
    freeze_inputs()
    record_golden()
