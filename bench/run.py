"""Benchmark of the btwifi simulator: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--jobs J]

Closed loop: repetitions of the workload's grid run one after another in
this process until --seconds have passed (only sweep_parallel uses a pool,
of --jobs workers, default nproc).  Every repetition's summary CSV is
checked against the pin in pins.json for this seed, or against the first
repetition when the seed is not pinned.

--trace 0 reports the end-to-end metrics, all measured with tracing off.
Repetition times are scaled to reference seconds by a calibration loop run
around every repetition; the raw host times are printed beside them.  A
one-process workload is kept on one CPU, the highest-numbered it may use.
--trace 1 runs pairs of one untraced and one traced repetition and reports
the per-layer metrics of the traced one (medians over the pairs).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the run record and
every metric by name and unit.  Failure messages go to standard error.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import spans
import workloads

SETUP_PROBES = 9
PROBE = os.path.join(workloads.BENCH_DIR, "probe.py")
PROBE_TIMEOUT_S = 120
# Spans cheap enough to time each pool point in the parent without tracing it.
POINT_SPANS = {"simulation.run_single", "engine.run_until", "metrics.finalize"}

# Host times are scaled to reference seconds: seconds on a CPU that runs
# calibration_s() in CALIBRATION_REF_S.  The scale is measured around every
# repetition, which cancels the drift in CPU speed of a shared host.
CALIBRATION_LOOPS = 150_000
CALIBRATION_REF_S = 0.1
END_TO_END_UNITS = {"wall_s": "ref_s", "sim_speed": "sim_s/ref_s", "setup_s": "s",
                    "cpu_s": "ref_s", "peak_rss_mb": "MB"}
HOST_UNITS = {"host_wall_s": "s", "host_sim_speed": "sim_s/s", "host_cpu_s": "s",
              "calibration_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name == "trace.bytes":
        return "bytes"
    if name.endswith(("ratio", "per_tx", "efficiency", "overhead")):
        return "ratio"
    return "count"


# -- end-to-end run ---------------------------------------------------------------

def probe_setup(w, seed: int) -> float:
    """Host seconds from starting a fresh interpreter to its first event."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, PROBE, w.name, str(seed)],
                         capture_output=True, text=True, check=True,
                         timeout=PROBE_TIMEOUT_S, cwd=workloads.ROOT).stdout
    return float(out.split()[-1]) - t0


def calibration_s() -> float:
    """Host seconds of a fixed pure-Python loop shaped like the event loop:
    heap pushes and pops, dict stores and RNG draws.  Its time tracks how
    fast this CPU runs Python at the moment."""
    rng = random.Random(1)
    heap, table = [], {}
    t0 = time.perf_counter()
    for i in range(CALIBRATION_LOOPS):
        heapq.heappush(heap, (rng.random(), i))
        table[i & 1023] = i
        if len(heap) > 200:
            heapq.heappop(heap)
    return time.perf_counter() - t0


def pool_calibration_s() -> float:
    """Mean calibration over every CPU the pool may use, each measured with
    this process kept on that CPU."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(calibration_s())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(times)


def untraced(w, seed: int, seconds: float, jobs: int, reference):
    """End-to-end metrics, and the raw host times they were scaled from."""
    calibrate = pool_calibration_s if w.pool else calibration_s
    setups, reps = [], []
    calibrations = [calibrate()]
    t0 = time.perf_counter()
    while not reps or time.perf_counter() - t0 < seconds:
        rep = workloads.run_rep(w, w.seeds(seed), jobs, reference)
        reference = reference or rep.fingerprint()
        reps.append(rep)
        calibrations.append(calibrate())
        # spread over the run, the probes see the same host as the repetitions
        setups.append(probe_setup(w, seed))
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(w, seed))
    # each repetition is scaled by the calibrations just before and after it
    scales = [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]
    host = {
        "host_wall_s": statistics.median(r.wall_s for r in reps),
        "host_sim_speed": statistics.median(r.sim_s / r.sim_host_s for r in reps),
        "host_cpu_s": statistics.median(r.cpu_s for r in reps),
        "calibration_s": statistics.median(calibrations),
    }
    metrics = {
        "wall_s": statistics.median(r.wall_s * k for r, k in zip(reps, scales)),
        "sim_speed": statistics.median(r.sim_s / (r.sim_host_s * k) for r, k in zip(reps, scales)),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r.cpu_s * k for r, k in zip(reps, scales)),
        # this process ran nothing but the workload; its probes are children
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failures = [f for r in reps for f in r.failures]
    return metrics, host, sum(r.attempted for r in reps), failures, len(reps)


# -- traced run -------------------------------------------------------------------

def _ratio(a, b):
    if a is None or b is None:
        return None
    return a / b if b else 0.0


def _ns(v):
    return None if v is None else v / 1e9


def per_layer(sp: spans.Spans, traced, untraced_rep, points=None, jobs: int = 1) -> dict:
    """Per-layer metrics of one traced repetition; None marks an absent one.

    points holds the spans of a pool workload's points run one by one in
    this process, since the pool's workers are not traced.
    """
    sched = sp.calls("engine.schedule")
    dispatched = None if sched is None else sum(
        st.calls for name, st in sp.stats.items() if name.endswith(".dispatch"))
    pending = sp.pending()
    tx = sp.calls("medium.begin_transmission")
    listeners = [c for c in (sp.calls(f"mac.{n}") for n in spans.LISTENERS) if c is not None]
    listener_calls = sum(listeners) if listeners else None
    heap_peak = sp.heap_peak if sp.heap_peak is not None else (0 if sched == 0 else None)
    timing = points or sp
    parts = [timing.total_s(n) for n in ("simulation.run_single", "engine.run_until",
                                         "metrics.finalize")]
    build = None if None in parts else parts[0] - parts[1] - parts[2]
    return {
        "engine.schedule.calls": sched,
        "engine.schedule.self_s": sp.self_s("engine.schedule"),
        "engine.dispatched": dispatched,
        "engine.discarded": None if None in (sched, dispatched, pending)
        else sched - dispatched - pending,
        "engine.dispatch_ratio": _ratio(dispatched, sched),
        "engine.heap_peak": heap_peak,
        "engine.run_until.self_s": sp.self_s("engine.run_until"),
        "engine.schedule_per_tx": _ratio(sched, tx),
        "medium.begin_transmission.calls": tx,
        "medium.begin_transmission.self_s": sp.self_s("medium.begin_transmission"),
        "medium.listener_calls": listener_calls,
        "medium.listener_calls_per_tx": _ratio(listener_calls, tx),
        "medium.abort_transmission.calls": sp.calls("medium.abort_transmission"),
        "medium.busy_tone_set.calls": sp.calls("medium.busy_tone_set"),
        "medium.busy_tone_set.self_s": sp.self_s("medium.busy_tone_set"),
        "mac.on_main_idle.calls": sp.calls("mac.on_main_idle"),
        "mac.on_main_idle.self_s": sp.self_s("mac.on_main_idle"),
        "mac.on_main_busy.calls": sp.calls("mac.on_main_busy"),
        "mac.on_main_busy.self_s": sp.self_s("mac.on_main_busy"),
        "mac.handlers.self_s": _ns(sp.prefix("mac.", "self_ns")),
        "mac.on_control_busy.self_s": sp.self_s("mac.on_control_busy"),
        "mac.on_control_idle.self_s": sp.self_s("mac.on_control_idle"),
        "urllc.handlers.self_s": _ns(sp.prefix("urllc.", "self_ns")),
        "traffic.arrivals": sp.calls("mac.enqueue"),
        "traffic.handlers.self_s": _ns(sp.prefix("traffic.", "self_ns")),
        "metrics.calls": sp.prefix("metrics.on_", "calls"),
        "metrics.self_s": _ns(sp.prefix("metrics.on_", "self_ns")),
        "metrics.finalize.s": sp.total_s("metrics.finalize"),
        "trace.emit.calls": sp.calls("trace.emit"),
        "trace.emit.self_s": sp.self_s("trace.emit"),
        "trace.bytes": traced.trace_bytes,
        **{f"tracecheck.{n}.s": sp.total_s(f"tracecheck.{n}")
           for n in ("load_records", "collect_transmissions", "mark_overlaps",
                     "tone_spans", "union_measure")},
        "tracecheck.scan_trace.self_s": sp.self_s("tracecheck.scan_trace"),
        "tracecheck.replay_csv_row.self_s": sp.self_s("tracecheck.replay_csv_row"),
        "sweep.run_sweep.s": sp.total_s("sweep.run_sweep"),
        "sweep.render_csv.s": sp.total_s("sweep.render_csv"),
        "sweep.point_wall_max_s": points.max_s("simulation.run_single") if points else 0.0,
        "sweep.parallel_efficiency": _ratio(points.total_s("simulation.run_single"),
                                            jobs * untraced_rep.wall_s) if points else 0.0,
        "config.parse_config.s": sp.total_s("config.parse_config"),
        "simulation.build_s": build,
        "bench.trace_overhead": traced.wall_s / untraced_rep.wall_s,
    }


def _spanned_rep(w, seed, jobs, reference, only=None, pool=None):
    sp = spans.Spans()
    sp.install(only)
    try:
        rep = workloads.run_rep(w, w.seeds(seed), jobs, reference, pool=pool)
    finally:
        sp.restore()
    return sp, rep


def traced(w, seed: int, seconds: float, jobs: int, reference):
    samples, reps, failures = [], [], []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        plain = workloads.run_rep(w, w.seeds(seed), jobs, reference)
        reference = reference or plain.fingerprint()
        sp, rep = _spanned_rep(w, seed, jobs, reference)
        reps += [plain, rep]
        points = None
        if w.pool:
            points, point_rep = _spanned_rep(w, seed, jobs, reference,
                                             only=POINT_SPANS, pool=False)
            reps.append(point_rep)
        failures += [f"traced row {i} differs from the untraced row"
                     for i, (a, b) in enumerate(zip(rep.rows, plain.rows)) if a != b]
        samples.append(per_layer(sp, rep, plain, points, jobs))
    metrics = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        metrics[name] = None if None in values else statistics.median(values)
    failures += [f for r in reps for f in r.failures]
    return metrics, {}, sum(r.attempted for r in reps), failures, len(samples)


# -- command line -----------------------------------------------------------------

def build_parser(nproc: int) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1,
                   help="benchmark seed; picks the simulator seeds (default: 1)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long to repeat the workload (default: 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--jobs", type=int, default=nproc,
                   help=f"pool workers for sweep_parallel, 1..nproc (default: {nproc})")
    return p


def main(argv=None) -> int:
    nproc = workloads.nproc()
    parser = build_parser(nproc)
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= nproc:
        parser.error(f"--jobs must be between 1 and nproc={nproc}, got {args.jobs}")
    w = workloads.WORKLOADS[args.workload]
    reference = workloads.load_pin(w.name, args.seed)
    cpu = None
    if not w.pool:
        # Migrating between a busy and an idle CPU is the largest source of
        # noise in a one-process workload's times, so it stays on one CPU.
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    record = {
        "workload": w.name, "bench_seed": args.seed, "sim_seeds": list(w.seeds(args.seed)),
        "csv_pinned": reference is not None, "seconds": args.seconds, "trace": args.trace,
        "jobs": args.jobs, "nproc": nproc, "cpu": cpu, "python": platform.python_version(),
        "git_sha": workloads.git_sha(), "loadavg_at_start": list(os.getloadavg()),
    }
    print("record " + json.dumps(record), flush=True)

    run = traced if args.trace else untraced
    metrics, host, attempted, failures, reps = run(w, args.seed, args.seconds, args.jobs,
                                                   reference)
    units = (lambda n: END_TO_END_UNITS[n]) if not args.trace else layer_unit
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {units(name)}"
        print(f"  {name:<36} {shown}")
    for name, value in host.items():
        print(f"  {name:<36} {value:.6g} {HOST_UNITS[name]}")
    print(f"  {'error_rate':<36} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} operations over {reps} repetitions)")
    for msg in failures[:20]:
        print(f"bench: FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in metrics.items() if value is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
