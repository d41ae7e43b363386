"""Per-layer tracing for the benchmark, installed from outside the program.

``Tracer.install`` wraps public functions and methods of the package at the
attribute each caller looks up (``twistspec.cli.classify``,
``twistspec.spectra.enumerate_endomorphisms``, ``FiniteGroup.quotient``, ...)
so that every call records a span: its name, start, end and parent.  Spans
stay in memory and are written out when the pass ends.

- A span's self time is its duration minus the time its child spans cover.
  The tracer's own bookkeeping inside a parent span is not charged to the
  parent but to ``trace.overhead_s``, so the self times of all spans plus the
  overhead add up exactly to the time of the root spans (``trace.wall_s``).
- The ``enumerate_*`` generators are timed by the time spent inside
  ``next()``.
- A lazily cached accessor is charged to the call that builds its cache.
  Wrapping the accessors themselves would slow every cached call, and
  ``product`` asks for the Cayley table on every call.  Instead, each group
  that ``closure`` returns gets its build lock (``FiniteGroup._lock``)
  replaced by a stand-in: the package enters that lock only to build a
  cache, so entering it from an accessor opens the accessor's span and
  cached calls run untouched.
- The sweeps' candidate counts come from public functions, computed after
  the sweep has finished (so every cache they read is already built) and
  charged to the overhead.

``count_products`` is a separate, count-only instrumentation of the two
hottest calls, ``Permutation.__mul__`` and ``FiniteGroup.product``: wrapping
them with spans would distort every measured time.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from collections import Counter
from time import perf_counter

# Span name -> the attributes it wraps, as (module, class or None, attribute).
CALLS = {
    "cli.self": [("twistspec.cli", None, "main")],
    "catalog.load": [("twistspec.catalog", None, "load")],
    "catalog.build": [("twistspec.catalog", None, "build")],
    "group.closure": [("twistspec.catalog", None, "closure"),
                      ("twistspec.group", None, "closure")],
    "group.nilpotent": [("twistspec.group", "FiniteGroup", "is_nilpotent")],
    "group.simple": [("twistspec.group", "FiniteGroup", "is_simple")],
    "group.quasisimple": [("twistspec.group", "FiniteGroup", "is_quasisimple")],
    "group.quotient": [("twistspec.group", "FiniteGroup", "quotient")],
    "morphism.kernel_tower": [("twistspec.morphism", "Morphism", "iterated_kernel")],
    "morphism.induced": [("twistspec.morphism", "Morphism", "induced_on_quotient")],
    "twisted.orbits": [("twistspec.spectra", None, "twisted_classes"),
                       ("twistspec.twisted", None, "twisted_classes")],
    "twisted.fixed": [("twistspec.spectra", None, "induced_class_map"),
                      ("twistspec.twisted", None, "induced_class_map")],
    "twisted.reduction": [("twistspec.spectra", None, "reduction_check")],
    "spectra.classify": [("twistspec.cli", None, "classify")],
    "spectra.battery": [("twistspec.cli", None, "theorem_battery"),
                        ("twistspec.spectra", None, "theorem_battery")],
}

# Lazily cached FiniteGroup accessors: span name -> method names.
CACHED = {
    "group.cayley_table": ["cayley_table"],
    "group.inverses": ["inverses"],
    "group.element_orders": ["element_orders"],
    "group.conjugacy_classes": ["conjugacy_classes"],
    "group.center": ["center"],
    "group.derived": ["derived_subgroup"],
    "group.generating_set": ["small_generating_set", "extension_plan"],
}

# Span names whose call counts are reported, under the metric name given.
CALL_COUNTS = {
    "group.quotient": "group.quotient_calls",
    "twisted.orbits": "twisted.orbit_calls",
    "twisted.reduction": "twisted.reduction_calls",
    "twisted.fixed": "twisted.fixed_calls",
}


def end_candidates(group) -> int:
    """Size of the endomorphism search grid: for each search generator, the
    elements whose order divides the generator's order."""
    orders = group.element_orders()
    return math.prod(sum(1 for o in orders if orders[g] % o == 0)
                     for g in group.small_generating_set())


def aut_grid(group) -> int:
    """Size of the automorphism search grid before prefix pruning: for each
    search generator, the elements of equal order and class size."""
    orders = group.element_orders()
    classes = group.conjugacy_classes()
    size = [classes.sizes[c] for c in classes.class_of]
    return math.prod(sum(1 for x in range(group.order)
                         if orders[x] == orders[g] and size[x] == size[g])
                     for g in group.small_generating_set())


# Sweep span name -> (module, attribute, grid size, and the metric names of
# the yield count, the grid count and their ratio).
SWEEPS = {
    "morphism.end_sweep": ("twistspec.spectra", "enumerate_endomorphisms",
                           end_candidates, "morphism.end_yielded",
                           "morphism.end_candidates", "morphism.end_yield_ratio"),
    "morphism.aut_sweep": ("twistspec.spectra", "enumerate_automorphisms",
                           aut_grid, "morphism.aut_yielded",
                           "morphism.aut_grid", "morphism.aut_yield_ratio"),
}

SPAN_NAMES = [*CALLS, *CACHED, *SWEEPS]


class _Frame:
    """An open span: its slot in the span list, when its wrapper was entered
    and when the span started, and how much of it children have covered."""

    __slots__ = ("index", "name_id", "entered", "start", "covered")

    def __init__(self, index: int, name_id: int, entered: float):
        self.index = index
        self.name_id = name_id
        self.entered = entered
        self.start = 0.0
        self.covered = 0.0


class _BuildLock:
    """Stands in for a group's reentrant build lock and opens a span for
    each cache build entered from a known accessor."""

    __slots__ = ("lock", "tracer", "opened")

    def __init__(self, lock, tracer: "Tracer"):
        self.lock = lock
        self.tracer = tracer
        self.opened: list = []

    def __enter__(self):
        self.lock.__enter__()
        name_id = self.tracer.accessor_ids.get(sys._getframe(1).f_code.co_name)
        self.opened.append(None if name_id is None else self.tracer.open(name_id))
        return self

    def __exit__(self, *exc):
        frame = self.opened.pop()
        if frame is not None:
            self.tracer.close(frame)
        return self.lock.__exit__(*exc)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []      # (name id, start, end, parent index)
        self.stack: list[_Frame] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.overhead_s = 0.0
        self.wall_s = 0.0
        self.accessor_ids: dict[str, int] = {}
        self.unwrapped: list[str] = []

    # -- spans ------------------------------------------------------------

    def open(self, name_id: int) -> _Frame:
        frame = _Frame(len(self.spans), name_id, perf_counter())
        self.spans.append(None)
        self.stack.append(frame)
        frame.start = perf_counter()
        return frame

    def close(self, frame: _Frame) -> None:
        end = perf_counter()
        self.stack.pop()
        name = self.names[frame.name_id]
        self.self_s[name] += (end - frame.start) - frame.covered
        self.calls[name] += 1
        parent = self.stack[-1] if self.stack else None
        self.spans[frame.index] = (frame.name_id, frame.start, end,
                                   parent.index if parent else -1)
        if parent is None:
            self.wall_s += end - frame.start
        else:
            left = perf_counter()
            parent.covered += left - frame.entered
            self.overhead_s += (frame.start - frame.entered) + (left - end)

    def call(self, name_id: int, fn, args, kwargs):
        frame = self.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    def outside(self, fn, *args):
        """Run harness work inside the current span, charged to the overhead
        instead of the span's self time.  ``fn`` must open no span."""
        entered = perf_counter()
        try:
            return fn(*args)
        finally:
            left = perf_counter()
            if self.stack:
                self.stack[-1].covered += left - entered
                self.overhead_s += left - entered

    # -- installation ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _lookup(self, module: str, owner: str | None, attr: str):
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        if target is None or not hasattr(target, attr):
            self.unwrapped.append(f"{module}.{owner + '.' if owner else ''}{attr}")
            return None, None
        return target, getattr(target, attr)

    def install(self) -> None:
        for name, targets in CALLS.items():
            name_id = self._name_id(name)
            for module, owner, attr in targets:
                target, fn = self._lookup(module, owner, attr)
                if target is not None:
                    setattr(target, attr, self._wrap_call(name_id, fn))
        for name, attrs in CACHED.items():
            name_id = self._name_id(name)
            for attr in attrs:
                if self._lookup("twistspec.group", "FiniteGroup", attr)[0]:
                    self.accessor_ids[attr] = name_id
        for name, (module, attr, grid, yield_key, grid_key, _) in SWEEPS.items():
            name_id = self._name_id(name)
            target, fn = self._lookup(module, None, attr)
            if target is not None:
                setattr(target, attr,
                        self._wrap_sweep(name_id, fn, grid, yield_key, grid_key))
        # Every group that closure() returns is counted and gets a build
        # lock that times its cached accessors.
        for module in ("twistspec.catalog", "twistspec.group"):
            target, fn = self._lookup(module, None, "closure")
            if target is not None:
                setattr(target, "closure", self._watch_closure(fn))

    def _wrap_call(self, name_id: int, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name_id, fn, args, kwargs)
        return traced

    def _watch_closure(self, fn):
        tracer = self

        def new_group(group):
            tracer.counts["group.elements_materialized"] += len(group)
            if hasattr(group, "_lock"):
                group._lock = _BuildLock(group._lock, tracer)
            elif "FiniteGroup._lock" not in tracer.unwrapped:
                tracer.unwrapped.append("FiniteGroup._lock")

        def watched(*args, **kwargs):
            group = fn(*args, **kwargs)
            tracer.outside(new_group, group)
            return group
        return watched

    def _wrap_sweep(self, name_id: int, fn, grid, yield_key: str,
                    grid_key: str):
        tracer = self

        def traced(group, *args, **kwargs):
            sweep = fn(group, *args, **kwargs)

            def timed():
                while True:
                    try:
                        item = tracer.call(name_id, next, (sweep,), {})
                    except StopIteration:
                        tracer.counts[grid_key] += tracer.outside(grid, group)
                        return
                    tracer.counts[yield_key] += 1
                    yield item
            return timed()
        return traced

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        metrics = {f"{name}_s": self.self_s[name] for name in SPAN_NAMES}
        for name, key in CALL_COUNTS.items():
            metrics[key] = self.calls[name]
        materialized = "group.elements_materialized"
        metrics[materialized] = self.counts[materialized]
        for _, _, _, yield_key, grid_key, ratio_key in SWEEPS.values():
            yielded, grid = self.counts[yield_key], self.counts[grid_key]
            metrics[yield_key] = yielded
            metrics[grid_key] = grid
            metrics[ratio_key] = yielded / grid if grid else 0.0
        metrics["trace.overhead_s"] = self.overhead_s
        metrics["trace.wall_s"] = self.wall_s
        metrics["trace.spans"] = len(self.spans)
        return {"metrics": metrics, "unwrapped": self.unwrapped}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, out)


def count_products() -> Counter:
    """Count calls to Permutation.__mul__ and FiniteGroup.product."""
    from twistspec.group import FiniteGroup
    from twistspec.perm import Permutation

    counts: Counter = Counter({"perm.products": 0, "group.product_calls": 0})
    mul, product = Permutation.__mul__, FiniteGroup.product

    def counted_mul(self, other):
        counts["perm.products"] += 1
        return mul(self, other)

    def counted_product(self, i, j):
        counts["group.product_calls"] += 1
        return product(self, i, j)

    Permutation.__mul__ = counted_mul
    FiniteGroup.product = counted_product
    return counts
