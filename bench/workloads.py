"""The benchmark's workloads and one repetition of each.

A workload is a (scheme x M x seed) grid with N=10 regular stations.  The
benchmark seed picks the simulator seeds; btwifi sees only the scenario text
and the RunConfigs built from it, through its public calls
(config.parse_config, simulation.run_single, sweep.run_sweep/render_csv and
the tracecheck functions).  Every call is made through its module attribute,
so spans.py can wrap it.

btwifi is imported from the checkout's own src/ tree, never from an
installed copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

if SRC not in sys.path:
    sys.path.insert(0, SRC)

import btwifi  # noqa: E402
from btwifi import config, engine, simulation, sweep, tracecheck  # noqa: E402

if not os.path.abspath(btwifi.__file__).startswith(SRC + os.sep):
    raise ImportError(f"btwifi was imported from {btwifi.__file__}, not from {SRC}")

N_REGULAR = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    schemes: tuple
    m_list: tuple
    seeds_per_run: int
    sim_duration_us: int
    audit: bool = False  # trace every point and audit the trace
    pool: bool = False  # run the grid through run_sweep's worker pool

    def seeds(self, bench_seed: int) -> tuple:
        """Simulator seeds for one benchmark seed; disjoint across bench seeds."""
        k = self.seeds_per_run
        return tuple((bench_seed - 1) * k + i + 1 for i in range(k))

    def scenario_text(self, seeds) -> str:
        duration = self.sim_duration_us
        return ("[run]\n"
                f"n_regular = {N_REGULAR}\n"
                f"m_urllc = {', '.join(map(str, self.m_list))}\n"
                f"schemes = {', '.join(self.schemes)}\n"
                f"seeds = {', '.join(map(str, seeds))}\n"
                f"sim_duration_us = {duration}\n"
                f"warmup_us = {duration // 10}\n")


WORKLOADS = {w.name: w for w in (
    Workload("edca_dense",
             "legacy EDCA at M=40: every busy/idle edge fans out to 50 stations "
             "that arm or cancel a backoff event, so engine and mac dominate",
             ("legacy",), (40,), 2, 2_000_000),
    Workload("busytone_ladder",
             "proposed scheme at M=5, 25, 40: light preemption to tone "
             "saturation, where the medium fan-out leads and the engine share drops",
             ("proposed",), (5, 25, 40), 2, 2_000_000),
    Workload("trace_audit",
             "traced proposed and legacy runs at M=15, each audited by scan_trace, "
             "replay_csv_row and count_kinds; the only user of trace and tracecheck",
             ("legacy", "proposed"), (15,), 1, 2_000_000, audit=True),
    Workload("sweep_parallel",
             "the quick_look grid (both schemes, M=1, 10, 25) through "
             "run_sweep(jobs=nproc) and render_csv; the only user of the pool",
             ("legacy", "proposed"), (1, 10, 25), 2, 2_500_000, pool=True),
)}


def nproc() -> int:
    """CPUs this process may run on (Linux)."""
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Fingerprint:
    """What a repetition's output is checked against: pinned or a sibling's."""

    csv_sha256: str
    rows_sha256: list


def load_pin(workload: str, bench_seed: int) -> Optional[Fingerprint]:
    with open(PINS_PATH, encoding="utf-8") as fh:
        pins = json.load(fh)
    pin = pins.get(workload, {}).get(str(bench_seed))
    return Fingerprint(**pin) if pin is not None else None


@dataclass
class Rep:
    """One repetition of a workload: its output, checks and timings."""

    rows: list  # one summary-CSV row per grid point, None where the run raised
    csv: str
    attempted: int = 0
    failures: list = field(default_factory=list)  # one message per failed operation
    wall_s: float = 0.0
    cpu_s: float = 0.0
    sim_s: float = 0.0  # simulated seconds
    sim_host_s: float = 0.0  # host seconds inside run_single/run_sweep
    trace_bytes: int = 0

    def fingerprint(self) -> Fingerprint:
        return Fingerprint(sha256(self.csv),
                           [None if r is None else sha256(r) for r in self.rows])


def check_rows(rows: list, csv: str, ref: Fingerprint) -> list:
    """Failure messages for rows that differ from the reference."""
    failures = []
    if len(rows) != len(ref.rows_sha256):
        return [f"{len(rows)} rows, reference has {len(ref.rows_sha256)}"]
    for i, (row, want) in enumerate(zip(rows, ref.rows_sha256)):
        if row is not None and sha256(row) != want:
            failures.append(f"row {i} differs from the reference: {row}")
    if not failures and None not in rows and sha256(csv) != ref.csv_sha256:
        failures.append("summary CSV differs from the reference")
    return failures


def _audit(lines: list, rc, row: str) -> list:
    """The criterion-6 flow on one trace; returns failure messages."""
    where = f"{rc.scheme} M={rc.m_urllc} seed={rc.seed}"
    failures = [f"{where}: {p}" for p in tracecheck.scan_trace(
        lines, rc.sim_duration, rc.warmup, rc.detection_delay)]
    replayed = tracecheck.replay_csv_row(
        lines, rc.scheme, rc.m_urllc, rc.n_regular, rc.seed, rc.sim_duration,
        rc.warmup, rc.regular.payload_bits)
    if replayed != row:
        failures.append(f"{where}: trace replays to {replayed}, run gave {row}")
    if sum(tracecheck.count_kinds(lines).values()) != len(lines):
        failures.append(f"{where}: count_kinds does not cover every record")
    return failures


def run_rep(w: Workload, seeds, jobs: int = 1,
            reference: Optional[Fingerprint] = None,
            pool: Optional[bool] = None) -> Rep:
    """Run the workload's grid once; check its rows against reference.

    One operation is one grid point or one trace audit.  pool=False runs a
    pool workload's points one by one in this process.
    """
    pool = w.pool if pool is None else pool
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    cfg = config.parse_config(w.scenario_text(seeds))
    points = sweep.expand_grid(cfg)
    rep = Rep(rows=[], csv="", attempted=len(points))
    summaries = []
    if pool:
        ts = time.perf_counter()
        try:
            summaries = sweep.run_sweep(cfg, jobs=jobs)
        except Exception as exc:  # every point of the sweep counts as failed
            rep.failures.extend(f"{s} M={m} seed={seed}: run_sweep raised {exc!r}"
                                for s, m, seed in points)
        rep.sim_host_s = time.perf_counter() - ts
        rep.sim_s = len(summaries) * cfg.sim_duration / 1e6
        rep.rows = [sweep.render_csv([s]).splitlines()[1] for s in summaries] \
            or [None] * len(points)
    else:
        for scheme, m, seed in points:
            rc = cfg.run_config(scheme, m, seed, trace=w.audit)
            ts = time.perf_counter()
            try:
                result = simulation.run_single(rc)
            except Exception as exc:  # one failed point must not stop the rest
                rep.failures.append(f"{scheme} M={m} seed={seed}: {exc!r}")
                rep.rows.append(None)
                continue
            finally:
                rep.sim_host_s += time.perf_counter() - ts
            rep.sim_s += rc.sim_duration / 1e6
            summaries.append(result.summary)
            row = sweep.render_csv([result.summary]).splitlines()[1]
            rep.rows.append(row)
            if w.audit:
                rep.attempted += 1
                lines = result.trace_lines
                rep.trace_bytes += sum(len(line) + 1 for line in lines)
                audit = _audit(lines, rc, row)
                if audit:
                    rep.failures.append("; ".join(audit))
    rep.csv = sweep.render_csv(summaries)
    if reference is not None:
        rep.failures.extend(check_rows(rep.rows, rep.csv, reference))
    rep.wall_s = time.perf_counter() - t0
    rep.cpu_s = cpu_seconds() - cpu0
    return rep


class _FirstEvent(Exception):
    pass


def first_event_time(w: Workload, bench_seed: int) -> float:
    """Build the workload's RunConfigs and its first run; return the
    monotonic clock at the moment that run is about to dispatch its first
    event.  Measured in a fresh interpreter, this is the set-up time."""
    cfg = config.parse_config(w.scenario_text(w.seeds(bench_seed)))
    run_cfgs = [cfg.run_config(s, m, seed, trace=w.audit)
                for s, m, seed in sweep.expand_grid(cfg)]

    def stop(self, t_end):
        raise _FirstEvent(time.monotonic())

    original = engine.Engine.run_until
    engine.Engine.run_until = stop
    try:
        simulation.run_single(run_cfgs[0])
    except _FirstEvent as first:
        return first.args[0]
    finally:
        engine.Engine.run_until = original
    raise RuntimeError("run_single returned without running its event loop")


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git_dir, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"
