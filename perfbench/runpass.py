"""One benchmark pass in a fresh process: set up, run the commands, report.

Usage: python3 runpass.py SPEC.json

The spec names the checkout's ``src`` directory, the pass directory, the
definition documents to write, the commands, the per-command timeout and a
mode: ``setup`` stops after set-up, ``plain`` runs the commands untraced,
``trace`` records spans (tracing.py) and ``count`` counts products only.
The result is written as JSON to ``result.json`` in the pass directory.

Set-up is everything a user pays before the first command: interpreter
start, importing the package and writing the group-definition files.  Each
command runs through ``twistspec.cli.main`` with its output captured; a
command still running after the timeout is stopped and recorded as a
``"timeout"``.

The speed of the CPU this process runs on swings by a quarter and more
within seconds on a shared host, for the program and for everything else
alike.  So the pass measures that speed with a fixed reference loop
(``reference_chunk``) on the same CPU at the same moments, from a
``SIGPROF`` handler: one chunk every ``SETUP_SAMPLE_EVERY_S`` of CPU time
during set-up (from the start of ``main``), and in ``plain`` mode one every
``SAMPLE_EVERY_S`` during the commands.  The time the chunks take is taken
out of the measured times, and run.py scales those by the mean chunk time
to reference seconds.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

# CPU time between two reference chunks (about 1% of it goes to the chunks),
# and more often during the short set-up.
SAMPLE_EVERY_S = 0.02
SETUP_SAMPLE_EVERY_S = 0.004


def reference_chunk() -> int:
    """A fixed piece of interpreter work: integer arithmetic, dict updates."""
    table: dict = {}
    acc = 0
    for i in range(1000):
        key = (i * 7919) % 97
        table[key] = table.get(key, 0) + i
        acc += key
    return acc


class Speedometer:
    """Times reference chunks on the CPU that runs the pass.

    ``start(every_s)`` times one chunk every ``every_s`` of the process's CPU
    time from then on, between the program's own bytecodes.  ``spent_wall``
    and ``spent_cpu`` add up what the chunks took, so that callers can take
    it out of their own timings.
    """

    def __init__(self):
        self.chunks = 0
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _sample(self, signum, frame) -> None:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        reference_chunk()
        self.spent_wall += time.perf_counter() - wall0
        self.spent_cpu += time.process_time() - cpu0
        self.chunks += 1

    def start(self, every_s: float) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, every_s, every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mean_chunk_s(self) -> float | None:
        return self.spent_wall / self.chunks if self.chunks else None


class CommandTimeout(BaseException):
    """Raised into a command that ran past its timeout.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


class Alarm:
    """Raises CommandTimeout into the command running when it goes off."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise CommandTimeout

    def set(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def clear(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_command(main, argv: list, alarm: Alarm, timeout_s: float,
                speed: Speedometer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    status, code = "ok", None
    gc.collect()
    alarm.set(timeout_s)
    spent_wall0, spent_cpu0 = speed.spent_wall, speed.spent_cpu
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    except CommandTimeout:
        status = "timeout"
    except Exception:
        status = "exception"
        err.write(traceback.format_exc())
    finally:
        alarm.clear()
    wall = time.perf_counter() - wall0 - (speed.spent_wall - spent_wall0)
    cpu = time.process_time() - cpu0 - (speed.spent_cpu - spent_cpu0)
    return {
        "status": status,
        "exit": code,
        "wall_s": wall,
        "cpu_s": cpu,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }


def _unplace(text: str, places: dict) -> str:
    for token, value in sorted(places.items(), key=lambda kv: -len(kv[1])):
        text = text.replace(value, token)
    return text


def main() -> None:
    setup_speed = Speedometer()
    setup_speed.start(SETUP_SAMPLE_EVERY_S)
    spec = json.loads(Path(sys.argv[1]).read_bytes())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import twistspec.cli
    from twistspec import catalog
    if src not in Path(twistspec.__file__).resolve().parents:
        raise SystemExit(f"twistspec was imported from {twistspec.__file__}")

    pass_dir = Path(spec["pass_dir"])
    definitions = [catalog.from_json_dict(doc) for doc in spec["definitions"]]
    paths = catalog.write_catalog(pass_dir / "defs", definitions)
    places = {"@DIR": str(pass_dir / "defs"), "@OUT": str(pass_dir / "out.json")}
    places.update({f"@def:{d.name}": str(p) for d, p in zip(definitions, paths)})
    out_file = Path(places["@OUT"])

    tracer = counter = None
    if spec["mode"] == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    elif spec["mode"] == "count":
        import tracing
        counter = tracing.count_products()

    t_first = time.monotonic()
    setup_speed.stop()
    result = {"t_first": t_first, "setup_spent_s": setup_speed.spent_wall,
              "setup_chunk_s": setup_speed.mean_chunk_s(), "commands": []}
    speed = Speedometer()
    if spec["mode"] != "setup":
        alarm = Alarm()
        if spec["mode"] == "plain":
            speed.start(SAMPLE_EVERY_S)
        for argv in spec["commands"]:
            record = run_command(twistspec.cli.main,
                                 [places.get(arg, arg) for arg in argv],
                                 alarm, spec["timeout_s"], speed)
            record["stdout"] = _unplace(record["stdout"], places)
            record["files"] = {}
            if out_file.exists():
                record["files"]["@OUT"] = out_file.read_bytes().decode("utf-8")
                out_file.unlink()
            result["commands"].append(record)
        speed.stop()
    result["chunk_s"] = speed.mean_chunk_s()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(pass_dir / "spans.json")
    if counter is not None:
        result["counts"] = dict(counter)
    (pass_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
