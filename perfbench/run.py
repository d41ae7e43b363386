#!/usr/bin/env python3
"""The twistspec benchmark: one command that runs a workload through the
user entry point ``twistspec.cli.main``, checks every output and prints every
metric by name with its unit.

    python3 perfbench/run.py --workload {survey,verify,ladder} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src`` and works in ``.perfbench/`` at the checkout root.

The loop is closed, with one caller: each pass starts after the previous one
has finished, and each pass runs every command of the workload in order in a
fresh process (runpass.py), because lazily cached tables and leftover
objects of earlier commands skew later ones.  Passes repeat until
``--seconds`` have gone by (at least one pass).

- ``--trace 0`` reports the end-to-end metrics, medians over the passes:
  ``wall_s`` and ``cpu_s`` (time of the commands; CPU time leaves out what
  the hypervisor takes away), ``peak_rss_mb`` and ``setup_s`` (process start
  to first command, over the passes and a few set-up-only processes).
  The three times are in reference seconds: each process's times are
  scaled by ``REF_CHUNK_S`` over the mean time of a fixed reference loop
  that the process ran on the same CPU between its own steps, during
  set-up for ``setup_s`` and during the commands for the others
  (runpass.py).  The speed of a shared host swings by a quarter and
  more within seconds; the scaling takes that out, and a change to the
  program still moves the times in full, because the reference loop does
  not call the program.  The summary line also gives the unscaled medians.
- ``--trace 1`` reports the per-layer metrics of the median traced pass
  (tracing.py) and the exact product counts of one extra count-only pass.

Every command's output is compared with the golden output and with known
mathematics (workloads.py).  A failed, timed-out or mismatching command
counts in ``failed``; the result then reads ``"correct": false`` and the
benchmark exits 1.  The line before the result holds the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import DEFAULT_SEED, seeded_definitions  # noqa: E402
from workloads import WORKLOADS, Workload, check_command, load_golden  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
RUNPASS = HERE / "runpass.py"

SETUP_PROBES = 16
# A reference second is the time in which the reference loop runs
# 1 / REF_CHUNK_S chunks; REF_CHUNK_S is about the chunk's time on an Intel
# Xeon vCPU under CPython 3.11, so reference seconds are near seconds there.
REF_CHUNK_S = 200e-6
# Every run must end within 180 s; passes are cut off before that.
RUN_LIMIT_S = 170.0
SPAWN_MARGIN_S = 30.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (as opposed to a failed command)."""


def spawn(workload: Workload, definitions: list, mode: str, pass_dir: Path,
          deadline: float) -> dict:
    """Run one pass process and return its record.

    A process that dies or outlives the deadline is killed, and each command
    it did not report is recorded as ``"crash"`` or ``"timeout"``.
    """
    pass_dir.mkdir(parents=True)
    spec = {
        "src": str(SRC),
        "pass_dir": str(pass_dir),
        "definitions": definitions,
        "commands": [list(command.argv) for command in workload.commands],
        "timeout_s": workload.timeout_s,
        "mode": mode,
    }
    (pass_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    # The program's own settings (TWISTSPEC_BUDGET, ...) keep their defaults.
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH" and not key.startswith("TWISTSPEC_")}
    env["PYTHONHASHSEED"] = "0"
    wait_s = len(spec["commands"]) * workload.timeout_s + SPAWN_MARGIN_S
    wait_s = max(0.0, min(wait_s, deadline - time.monotonic()))
    status = "crash"
    with open(pass_dir / "log.txt", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(RUNPASS), str(pass_dir / "spec.json")],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=wait_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            status = "timeout"
    result_file = pass_dir / "result.json"
    if proc.returncode == 0 and result_file.exists():
        record = json.loads(result_file.read_bytes())
    else:
        record = {"t_first": t_spawn, "maxrss_kb": 0, "commands": []}
    if mode != "setup":
        missing = len(workload.commands) - len(record["commands"])
        record["commands"] += [{"status": status, "wall_s": 0.0, "cpu_s": 0.0}
                               for _ in range(missing)]
    # The set-up's reference chunks took setup_spent_s of it.
    record["setup_s"] = (record["t_first"] - t_spawn
                         - record.get("setup_spent_s", 0.0))
    record["wall_s"] = sum(c["wall_s"] for c in record["commands"])
    record["cpu_s"] = sum(c["cpu_s"] for c in record["commands"])
    # Reference seconds; a process too short to take a sample keeps seconds.
    setup_chunk = record.get("setup_chunk_s") or REF_CHUNK_S
    record["setup_ref_s"] = record["setup_s"] * REF_CHUNK_S / setup_chunk
    chunk = record.get("chunk_s") or REF_CHUNK_S
    record["wall_ref_s"] = record["wall_s"] * REF_CHUNK_S / chunk
    record["cpu_ref_s"] = record["cpu_s"] * REF_CHUNK_S / chunk
    return record


def tail(values: list) -> tuple[float, float] | None:
    """The highest percentile that still has ten values beyond it, as
    (percentile, value); None with ten values or fewer."""
    if len(values) <= 10:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 11
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """HEAD of the repository rooted at the checkout, if it is one."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, passes: int, setups: int) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "passes": passes,
        "setup_samples": setups,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        golden: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report details)."""
    if not (SRC / "twistspec" / "cli.py").is_file():
        raise BenchmarkError(f"no twistspec sources under {SRC}")
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    golden = load_golden(workload) if golden is None else golden
    definitions = seeded_definitions(workload.inputs, seed)
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)

    probes = [] if trace else [
        spawn(workload, definitions, "setup", work / f"setup-{i}", deadline)
        for i in range(SETUP_PROBES)]
    passes = []
    measure_from = last = time.monotonic()
    while not passes or time.monotonic() - measure_from < seconds:
        # Start no pass that the last one says cannot end before the deadline.
        now = time.monotonic()
        if passes and now + (now - last) > deadline:
            break
        last = now
        passes.append(spawn(workload, definitions, "trace" if trace else "plain",
                            work / f"pass-{len(passes)}", deadline))
    checked = list(passes)
    if trace:
        count_pass = spawn(workload, definitions, "count", work / "count", deadline)
        checked.append(count_pass)

    failures = []
    for number, record in enumerate(checked):
        for command, outcome in zip(workload.commands, record["commands"]):
            problems = check_command(command, outcome, golden)
            if problems:
                failures.append(f"pass {number}: {command.key}: "
                                + "; ".join(problems))
    attempted = len(checked) * len(workload.commands)

    if trace:
        metrics = layer_metrics(passes, count_pass)
    else:
        setups = [r["setup_ref_s"] for r in probes + passes]
        metrics = {
            "wall_s": (statistics.median(r["wall_ref_s"] for r in passes), "s"),
            "cpu_s": (statistics.median(r["cpu_ref_s"] for r in passes), "s"),
            "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024.0
                                              for r in passes), "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    details = {
        "provenance": provenance(seed, len(passes), len(probes) + len(passes)),
        "error_rate": len(failures) / attempted,
        "wall_tail": tail([r["wall_ref_s"] for r in passes]),
        "unscaled": {
            "wall_s": statistics.median(r["wall_s"] for r in passes),
            "cpu_s": statistics.median(r["cpu_s"] for r in passes),
            "setup_s": statistics.median(r["setup_s"] for r in probes + passes),
        },
        "ref_chunk_us": statistics.median(
            1e6 * (r.get("chunk_s") or REF_CHUNK_S) for r in passes),
        "passes": [{"wall_s": r["wall_ref_s"], "cpu_s": r["cpu_ref_s"],
                    "rss_mb": r["maxrss_kb"] / 1024.0,
                    "setup_s": r["setup_ref_s"], "raw_wall_s": r["wall_s"]}
                   for r in passes],
        "failures": failures,
        "untraced": sorted({name for r in passes
                            for name in r.get("trace", {}).get("unwrapped", [])}),
        "elapsed_s": time.monotonic() - started,
    }
    return result, details


def layer_metrics(passes: list, count_pass: dict) -> dict:
    """Per-layer metrics of the median traced pass, plus exact counts.

    All metrics come from one pass, so its layer self times and the tracing
    overhead add up to its traced wall time; a gap means a tracing bug.
    """
    traced = sorted((r for r in passes if "trace" in r),
                    key=lambda r: r["trace"]["metrics"]["trace.wall_s"])
    if not traced:
        raise BenchmarkError("no traced pass finished")
    layers = traced[(len(traced) - 1) // 2]["trace"]["metrics"]
    covered = sum(v for k, v in layers.items()
                  if k.endswith("_s") and k != "trace.wall_s")
    if abs(covered - layers["trace.wall_s"]) > 1e-6 * max(1.0, covered):
        raise BenchmarkError(f"layer self times add up to {covered} s, "
                             f"traced wall is {layers['trace.wall_s']} s")
    metrics = {}
    for name, value in layers.items():
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_ratio") else "count")
        metrics[name] = (value, unit)
    counts = count_pass.get("counts", {})
    for name in ("perm.products", "group.product_calls"):
        metrics[name] = (counts.get(name, 0), "count")
    return metrics


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = run(WORKLOADS[args.workload](), args.seed,
                              args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for number, p in enumerate(details["passes"]):
        print(f"pass {number}: wall {p['wall_s']:.4f} s  cpu {p['cpu_s']:.4f} s  "
              f"rss {p['rss_mb']:.1f} MiB  setup {p['setup_s']:.4f} s  "
              f"(unscaled wall {p['raw_wall_s']:.4f} s)")
    for failure in details["failures"][:20]:
        print(f"FAILED {failure}")
    summary = {k: v for k, v in details.items() if k not in ("passes", "failures")}
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
