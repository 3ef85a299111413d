"""In-memory span tracing for the benchmark, recorded from outside the program.

The program is never edited: :func:`installed` swaps the public functions
listed in :data:`TARGETS` for timing wrappers on their module or class
attributes, and puts every original back on exit.  Functions that callers
import by name (``longest_paths`` in ``repro.scheduling.timing`` and
``repro.scheduling.serial``, the request codecs in the serving client and
server) are wrapped at those callers' attributes, because that is the name
the callers look up at call time.

A span is ``(span_id, name, start, end, parent_id, op_id, useful)``.  The
parent is the innermost open span on the same thread; a span opened on a
thread with no open span (the server's event loop, the engine's worker
thread) hangs under the current op's root span.  The benchmark drives one
op at a time, so "the current op" is well defined across threads.

Each span name belongs to one layer, named after the package that owns the
code: ``core``, ``scheduling``, ``engine``, ``io``, ``serving``, ``online``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: (module, class or None, attribute, span name) of every wrapped function.
TARGETS = (
    ("repro.engine.runner", "BatchRunner", "run", "engine.run"),
    ("repro.engine.jobs", None, "problem_key", "engine.key"),
    ("repro.scheduling.power_aware", "PowerAwareScheduler",
     "solve_pipeline", "sched.pipeline"),
    ("repro.scheduling.timing", "TimingScheduler", "schedule_graph",
     "sched.timing"),
    ("repro.scheduling.max_power", "MaxPowerScheduler", "solve",
     "sched.maxp"),
    ("repro.scheduling.max_power", "MaxPowerScheduler", "eliminate_spikes",
     "sched.maxp.spikes"),
    ("repro.scheduling.max_power", "MaxPowerScheduler", "compact",
     "sched.maxp.compact"),
    ("repro.scheduling.serial", "SerialScheduler", "solve", "sched.serial"),
    ("repro.scheduling.min_power", "MinPowerScheduler", "improve",
     "sched.minp"),
    ("repro.scheduling.min_power", "MinPowerScheduler", "solve",
     "sched.solve"),
    ("repro.scheduling.timing", None, "longest_paths", "core.lp"),
    ("repro.scheduling.serial", None, "longest_paths", "core.lp"),
    ("repro.serving.client", None, "solve_request_to_dict", "io.encode"),
    ("repro.serving.server", None, "solve_request_from_dict", "io.decode"),
)

#: Span-name prefix -> layer.
LAYERS = {"core": "core", "sched": "scheduling", "engine": "engine",
          "io": "io", "serving": "serving", "online": "online"}


def layer_of(name: str) -> str:
    return LAYERS[name.split(".", 1)[0]]


class Tracer:
    """Collects spans in memory; one instance per benchmark run."""

    def __init__(self):
        self.spans: "list[tuple]" = []
        self.op_id: "int | None" = None
        self.root_id: "int | None" = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> "tuple[int, int | None, int | None]":
        stack = self._stack()
        parent = stack[-1] if stack else self.root_id
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, self.op_id

    def close(self, opened, name: str, start: float, end: float,
              useful: "bool | None" = None) -> None:
        self._stack().pop()
        span_id, parent, op_id = opened
        self.spans.append((span_id, name, start, end, parent, op_id, useful))

    @contextmanager
    def op(self, op_id: int, name: str):
        """The root span of one op; spans opened meanwhile hang under it."""
        span_id = next(self._ids)
        self._stack().append(span_id)
        self.op_id, self.root_id = op_id, span_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.close((span_id, None, op_id), name, start,
                       time.perf_counter())
            self.op_id = self.root_id = None

    def write(self, path: "str | Path", stamp: dict) -> None:
        fields = ("id", "name", "start", "end", "parent", "op", "useful")
        doc = {"stamp": stamp, "fields": fields, "spans": self.spans}
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


def _timed(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = tracer.open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(opened, name, start, time.perf_counter())
    return wrapper


def _timed_serial(tracer: Tracer, name: str, fn):
    """``SerialScheduler.solve``, marking whether the schedule it returns
    is a power-valid candidate under the problem's own ``P_max`` (the
    test ``MaxPowerScheduler`` applies to its serial fallback)."""
    from repro.core.profile import PowerProfile

    @functools.wraps(fn)
    def wrapper(self, problem, *args, **kwargs):
        opened = tracer.open()
        start = time.perf_counter()
        result = None
        try:
            result = fn(self, problem, *args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            useful = result is not None and PowerProfile.from_schedule(
                result.schedule, baseline=problem.total_baseline,
            ).is_power_valid(problem.p_max)
            tracer.close(opened, name, start, end, useful=useful)
    return wrapper


def _owner(module: str, cls: "str | None"):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def installed(tracer: Tracer):
    """Wrap every :data:`TARGETS` function; restore the originals on exit.

    A target the program no longer has is skipped, so the metrics that
    depend on it read zero instead of the benchmark failing.
    """
    saved = []
    try:
        for module, cls, attr, name in TARGETS:
            try:
                owner = _owner(module, cls)
            except (ImportError, AttributeError):
                continue
            original = owner.__dict__.get(attr) if cls else \
                getattr(owner, attr, None)
            if original is None:
                continue
            make = _timed_serial if name == "sched.serial" else _timed
            saved.append((owner, attr, original))
            setattr(owner, attr, make(tracer, name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def originals() -> "dict[str, object]":
    """The current object behind every target, keyed by ``module.attr``
    (tests compare these before and after :func:`installed`)."""
    found = {}
    for module, cls, attr, _name in TARGETS:
        owner = _owner(module, cls)
        found[f"{module}.{cls or ''}.{attr}"] = getattr(owner, attr)
    return found


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class SpanTable:
    """Durations, self times and ancestry of recorded spans.

    ``scale`` maps an op id to the factor its spans' times are multiplied
    by when summed (the op's host-speed factor; 1 when absent).
    """

    def __init__(self, spans, scale: "dict[int, float] | None" = None):
        self.scale = scale or {}
        self.spans = {s[0]: s for s in spans}
        children: "dict[int, list]" = {}
        for span in spans:
            if span[4] is not None:
                children.setdefault(span[4], []).append(span)
        self.self_time = {}
        for span_id, span in self.spans.items():
            kids = [(c[2], c[3]) for c in children.get(span_id, ())]
            self.self_time[span_id] = (span[3] - span[2]) \
                - _covered(span[2], span[3], kids)

    def named(self, name: str) -> list:
        return [s for s in self.spans.values() if s[1] == name]

    def has_ancestor(self, span, name: str) -> bool:
        parent = span[4]
        while parent is not None:
            ancestor = self.spans.get(parent)
            if ancestor is None:
                return False
            if ancestor[1] == name:
                return True
            parent = ancestor[4]
        return False

    def _k(self, span) -> float:
        return self.scale.get(span[5], 1.0)

    def length(self, span) -> float:
        """A span's scaled duration, seconds."""
        return (span[3] - span[2]) * self._k(span)

    def total(self, name: str, under: "str | None" = None) -> float:
        """Summed duration of ``name`` spans (only those with an
        ``under`` ancestor, when given), seconds."""
        return sum(self.length(s) for s in self.named(name)
                   if under is None or self.has_ancestor(s, under))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s[0]] * self._k(s)
                   for s in self.named(name))

    def layer_self(self) -> "dict[str, float]":
        """Self seconds per layer over every span."""
        out = {layer: 0.0 for layer in LAYERS.values()}
        for span_id, span in self.spans.items():
            out[layer_of(span[1])] += self.self_time[span_id] * self._k(span)
        return out
