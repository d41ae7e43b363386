#!/usr/bin/env python3
"""Fast smoke test of the benchmark harness itself (about ten seconds).

    python3 perfbench/smoke.py

It runs a few tiny catalog groups through the real pass machinery and
checks that:

- an untraced run is correct at the default seed and at another seed, with
  the same goldens, and reports every end-to-end metric;
- a traced run reports every per-layer metric, and the layer self times plus
  the tracing overhead add up to the traced wall time;
- a corrupted golden output makes the run fail;
- a command that runs past its timeout is recorded as a ``"timeout"``;
- ``run.py`` exits non-zero, without a result, where there are no sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import run
from workloads import Command, Workload, ladder, load_golden, verify

TINY = ("Z2", "S3", "Q8")


def metric_names(kind: str) -> set:
    """Names of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"] for metric in benchmark[kind]}


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke test FAILED: {message}")


def tiny_workload() -> tuple[Workload, dict]:
    full = verify()
    keys = [f"verify {name}" for name in TINY]
    commands = tuple(c for c in full.commands if c.key in keys)
    golden = {key: value for key, value in load_golden(full).items() if key in keys}
    return replace(full, name="smoke", commands=commands), golden


def check_untraced(workload: Workload, golden: dict) -> None:
    for seed in (0, 7):
        result, details = run.run(workload, seed, 0.5, False, golden)
        require(result["correct"] and result["failed"] == 0,
                f"seed {seed}: {details['failures']}")
        require(result["attempted"] == len(details["passes"]) * len(TINY),
                "attempted counts every command of every pass")
        require(set(result["metrics"]) == metric_names("end_to_end"),
                "end-to-end metric names")
        require(all(m["value"] > 0 for m in result["metrics"].values()),
                "end-to-end metrics are positive")


def check_traced(workload: Workload, golden: dict) -> None:
    result, details = run.run(workload, 3, 0.0, True, golden)
    require(result["correct"], f"traced run: {details['failures']}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    require(set(metrics) == metric_names("per_layer"), "per-layer metric names")
    covered = sum(v for k, v in metrics.items() if k.endswith("_s")
                  and k != "trace.wall_s")
    require(abs(covered - metrics["trace.wall_s"]) < 1e-6,
            "self times and overhead add up to the traced wall time")
    require(metrics["morphism.end_yielded"] == 2 + 10 + 28,
            "|End| of Z2, S3 and Q8")
    require(metrics["perm.products"] > 0 and metrics["group.product_calls"] > 0,
            "product counts")


def check_corrupted_golden(workload: Workload, golden: dict) -> None:
    corrupted = json.loads(json.dumps(golden))
    corrupted["verify S3"]["stdout"] = corrupted["verify S3"]["stdout"].replace(
        "PASS", "FAIL", 1)
    result, details = run.run(workload, 0, 0.0, False, corrupted)
    require(not result["correct"] and result["failed"] == 1,
            "a corrupted golden fails exactly the command it belongs to")


def check_timeout() -> None:
    full = ladder()
    workload = replace(full, name="smoke-timeout",
                       commands=(Command("info S6", full.commands[0].argv),),
                       timeout_s=0.5)
    result, details = run.run(workload, 0, 0.0, False, load_golden(full))
    require(result["failed"] == 1 and "timeout" in details["failures"][0],
            f"a slow command is recorded as a timeout: {details['failures']}")


def check_no_sources() -> None:
    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "survey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    require(done.returncode != 0 and '"correct"' not in done.stdout,
            "run.py must fail without sources")


def main() -> None:
    workload, golden = tiny_workload()
    check_untraced(workload, golden)
    check_traced(workload, golden)
    check_corrupted_golden(workload, golden)
    check_timeout()
    check_no_sources()
    print("smoke test passed")


if __name__ == "__main__":
    main()
