"""Per-layer spans around btwifi's functions, installed from outside.

Spans.install() swaps each layer's public functions for wrappers that count
calls and time them, and wraps every callback that passes through
Engine.schedule so that its dispatch is a span of the callback's own module.
Spans nest on one stack: a span's self time is its duration minus the time
of the spans it directly contains.  restore() puts every original back.

A target that no longer exists is recorded in Spans.absent instead of being
wrapped, so a refactor that deletes a function makes its metrics absent
rather than crashing the benchmark.  Pool workers are separate processes
and are not traced.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter_ns
from typing import Optional

LISTENERS = ("on_main_busy", "on_main_idle", "on_control_busy", "on_control_idle")
TRACECHECK = ("load_records", "collect_transmissions", "mark_overlaps",
              "tone_spans", "union_measure", "scan_trace", "replay_csv_row",
              "count_kinds")

# (btwifi module, class or None for a module function, attribute, span name)
TARGETS = (
    ("engine", "Engine", "schedule", "engine.schedule"),
    ("engine", "Engine", "run_until", "engine.run_until"),
    ("medium", "Medium", "begin_transmission", "medium.begin_transmission"),
    ("medium", "Medium", "abort_transmission", "medium.abort_transmission"),
    ("medium", "Medium", "busy_tone_set", "medium.busy_tone_set"),
    ("mac", "Station", "enqueue", "mac.enqueue"),
    *(("mac", "Station", name, f"mac.{name}") for name in LISTENERS),
    ("traffic", "SaturatedSource", "on_service_complete", "traffic.on_service_complete"),
    ("traffic", "ExpAfterSuccessSource", "on_service_complete",
     "traffic.on_service_complete"),
    ("metrics", "MetricsCollector", "finalize", "metrics.finalize"),
    ("trace", "Tracer", "emit", "trace.emit"),
    ("config", None, "parse_config", "config.parse_config"),
    ("simulation", None, "run_single", "simulation.run_single"),
    ("sweep", None, "run_single", "simulation.run_single"),
    ("sweep", None, "run_sweep", "sweep.run_sweep"),
    ("sweep", None, "render_csv", "sweep.render_csv"),
    *(("tracecheck", None, name, f"tracecheck.{name}") for name in TRACECHECK),
)
# Every on_* hook of the collector and every method of the tone-scheme
# station is wrapped, whatever their names are at the time.
PREFIX_TARGETS = (
    ("metrics", "MetricsCollector", "on_", "metrics."),
    ("urllc", "UrllcStation", "", "urllc."),
)


def _owner(module: str, cls: Optional[str]):
    try:
        mod = importlib.import_module(f"btwifi.{module}")
    except ImportError:
        return None
    return mod if cls is None else getattr(mod, cls, None)


def targets() -> list:
    """(owner, attribute, span name) for every target; owner None if gone."""
    out = []
    for module, cls, attr, name in TARGETS:
        owner = _owner(module, cls)
        if owner is not None and attr not in vars(owner):
            owner = None
        out.append((owner, attr, name))
    for module, cls, prefix, span_prefix in PREFIX_TARGETS:
        owner = _owner(module, cls)
        if owner is None:
            out.append((None, "", span_prefix + prefix))
            continue
        for attr, value in vars(owner).items():
            if attr.startswith(prefix) and not attr.startswith("__") \
                    and callable(value):
                out.append((owner, attr, span_prefix + attr))
    return out


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "max_ns")

    def __init__(self) -> None:
        self.calls = self.total_ns = self.self_ns = self.max_ns = 0


class Spans:
    """Call counts and times per span name, for one traced repetition."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.absent: set[str] = set()
        self.heap_peak: Optional[int] = None
        self.engines: list = []  # every engine run, for pending() at the end
        self._stack: list[list[int]] = []
        self._saved: list[tuple] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def call(self, st: Stat, fn, args, kwargs):
        stack = self._stack
        frame = [0]  # time of direct children
        stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            stack.pop()
            st.calls += 1
            st.total_ns += dt
            st.self_ns += dt - frame[0]
            if dt > st.max_ns:
                st.max_ns = dt
            if stack:
                stack[-1][0] += dt

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn):
        st = self.stat(name)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(st, fn, args, kwargs)
        return wrapper

    def _schedule(self, name: str, fn):
        st = self.stat(name)
        call = self.call
        by_module: dict[str, Stat] = {}

        def dispatch_stat(cb) -> Stat:
            module = getattr(cb, "__module__", None) or "other"
            ds = by_module.get(module)
            if ds is None:
                ds = by_module[module] = self.stat(module.rpartition(".")[2] + ".dispatch")
            return ds

        @functools.wraps(fn)
        def schedule(eng, fire_at, cb, *args, **kwargs):
            ds = dispatch_stat(cb)
            ev = call(st, fn, (eng, fire_at, lambda: call(ds, cb, (), {})) + args, kwargs)
            heap = getattr(eng, "_heap", None)
            if heap is not None and (self.heap_peak is None or len(heap) > self.heap_peak):
                self.heap_peak = len(heap)
            return ev
        return schedule

    def _run_until(self, name: str, fn):
        st = self.stat(name)
        call = self.call

        @functools.wraps(fn)
        def run_until(eng, *args, **kwargs):
            self.engines.append(eng)
            return call(st, fn, (eng,) + args, kwargs)
        return run_until

    def install(self, only: Optional[set] = None) -> None:
        """Wrap every target (or those whose span name is in only)."""
        special = {"engine.schedule": self._schedule, "engine.run_until": self._run_until}
        installed, missing = set(), set()
        for owner, attr, name in targets():
            if only is not None and name not in only:
                continue
            if owner is None:
                missing.add(name)
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, special.get(name, self._timed)(name, original))
            installed.add(name)
        self.absent = missing - installed

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def _get(self, name: str, field: str):
        if name in self.absent:
            return None
        st = self.stats.get(name)
        return getattr(st, field) if st is not None else 0

    def calls(self, name: str):
        return self._get(name, "calls")

    def total_s(self, name: str):
        v = self._get(name, "total_ns")
        return None if v is None else v / 1e9

    def self_s(self, name: str):
        v = self._get(name, "self_ns")
        return None if v is None else v / 1e9

    def max_s(self, name: str):
        v = self._get(name, "max_ns")
        return None if v is None else v / 1e9

    def prefix(self, prefix: str, field: str):
        """Sum of one field over every span whose name starts with prefix;
        None only when every such target is absent."""
        stats = [st for name, st in self.stats.items() if name.startswith(prefix)]
        if not stats and any(name.startswith(prefix) for name in self.absent):
            return None
        return sum(getattr(st, field) for st in stats)

    def pending(self):
        """Events still pending at the end of every run, or None."""
        if not all(hasattr(e, "pending") for e in self.engines):
            return None
        return sum(e.pending() for e in self.engines)
