"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured numbers (run with `pytest -s` to see them on success).

Heavier shared workloads (the M sweep and the traced mini-grid) live in
module-scoped fixtures so several criteria can share one execution.
"""

import json
import time

import pytest

from btwifi.config import ScenarioConfig
from btwifi.simulation import run_single
from btwifi.sweep import render_csv, run_sweep, summary_row
from btwifi.tracecheck import (collect_transmissions, count_kinds,
                               load_records, replay_csv_row, scan_trace,
                               union_measure)

DEFAULTS = ScenarioConfig()

M_SWEEP = (1, 5, 10, 15, 20, 25, 30, 35, 40)
SWEEP_SEEDS = (1, 2)
SWEEP_DURATION = 20_000_000  # 20 s per point is plenty for the trend checks


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def proposed_m_sweep():
    """Seed-averaged (delay mean, throughput) per M for the proposed scheme."""
    cfg = ScenarioConfig(m_list=M_SWEEP, schemes=("proposed",),
                         seeds=SWEEP_SEEDS, sim_duration=SWEEP_DURATION)
    summaries = run_sweep(cfg)
    out = {}
    for m in M_SWEEP:
        rows = [s for s in summaries if s.m_urllc == m]
        out[m] = (sum(s.urllc_delay_mean for s in rows) / len(rows),
                  sum(s.regular_throughput_bps for s in rows) / len(rows))
    return out


@pytest.fixture(scope="module")
def traced_grid():
    """Short traced runs across both schemes for the trace-level criteria."""
    cfg = ScenarioConfig(sim_duration=5_000_000, warmup=500_000)
    out = {}
    for scheme in ("legacy", "proposed"):
        for m in (0, 1, 5, 15):
            res = run_single(cfg.run_config(scheme, m, 1, trace=True))
            out[(scheme, m)] = (cfg, res)
    return out


def urllc_delays(lines):
    """The delay of every delivered URLLC frame in a trace, warm-up included."""
    records = map(json.loads, lines)
    return [r["delay"] for r in records
            if r["kind"] == "delivered" and r["sta"].startswith("u")]


def test_criterion_1_fast_path_delay_is_exactly_294us():
    cfg = ScenarioConfig(n_regular=0)
    t0 = time.time()
    res = run_single(cfg.run_config("proposed", 1, 1, trace=True))
    wall = time.time() - t0
    delays = urllc_delays(res.trace_lines)
    ok = (len(delays) > 0 and all(d == 294 for d in delays)
          and res.summary.urllc_dropped == 0 and wall < 5)
    report(1, ok, f"{len(delays)} delivered frames, delays "
           f"{sorted(set(delays))} us (expect exactly 294), {wall:.1f}s wall")


def test_criterion_2_single_station_throughput_oracle():
    cfg = ScenarioConfig(n_regular=1, sim_duration=10_000_000)
    t0 = time.time()
    res = run_single(cfg.run_config("legacy", 0, 1))
    wall = time.time() - t0
    # mean cycle: AIFS 43 + 7.5 slots + data 2000 + SIFS 16 + ack 44
    expected = 129_760 * 1_000_000 / 2170.5
    got = res.summary.regular_throughput_bps
    rel = abs(got - expected) / expected
    ok = rel < 0.01 and wall < 5
    report(2, ok, f"throughput {got/1e6:.3f} Mbit/s vs oracle "
           f"{expected/1e6:.3f} Mbit/s ({100*rel:.3f}% off), {wall:.1f}s wall")


def test_criterion_3_orders_of_magnitude_delay_reduction():
    cfg = ScenarioConfig()  # 100 s, defaults
    seeds = range(1, 11)
    t0 = time.time()
    means = {}
    for scheme in ("legacy", "proposed"):
        per_seed = [run_single(cfg.run_config(scheme, 5, s)).summary.urllc_delay_mean
                    for s in seeds]
        means[scheme] = sum(per_seed) / len(per_seed)
    wall = time.time() - t0
    ratio = means["proposed"] / means["legacy"]
    ok = ratio <= 0.10 and wall < 120
    report(3, ok, f"mean delay legacy {means['legacy']:.0f} us vs proposed "
           f"{means['proposed']:.0f} us, ratio {ratio:.3f} (need <= 0.10), "
           f"{wall:.0f}s wall (need < 120)")


def test_criterion_4_regular_throughput_collapse(proposed_m_sweep):
    thr = {m: v[1] for m, v in proposed_m_sweep.items()}
    base = thr[M_SWEEP[0]]
    tolerance = 0.05 * base
    monotone = all(thr[b] <= thr[a] + tolerance
                   for a, b in zip(M_SWEEP, M_SWEEP[1:]))
    collapse_at = next((m for m in M_SWEEP if thr[m] < 0.05 * base), None)
    ok = monotone and collapse_at is not None
    curve = ", ".join(f"M={m}:{thr[m]/1e6:.2f}M" for m in M_SWEEP)
    report(4, ok, f"throughput nonincreasing={monotone}, falls below 5% of "
           f"its M=1 value ({base/1e6:.2f} Mbit/s) at M={collapse_at}; {curve}")


def test_criterion_5_urllc_delay_knee(proposed_m_sweep):
    delay = {m: v[0] for m, v in proposed_m_sweep.items()}
    knee = None
    for m in M_SWEEP:
        if delay[m] < 1000:
            knee = m
        else:
            break
    growth = delay[M_SWEEP[-1]] / delay[M_SWEEP[0]]
    ok = knee is not None and knee >= 10 and growth > 10
    curve = ", ".join(f"M={m}:{delay[m]:.0f}us" for m in M_SWEEP)
    report(5, ok, f"delay < 1 ms up to M*={knee} (need >= 10); delay at "
           f"M={M_SWEEP[-1]} is {growth:.1f}x the M=1 value (need > 10x); {curve}")


def test_criterion_6_trace_invariants(proposed_m_sweep, traced_grid):
    problems = []
    for (scheme, m), (cfg, res) in traced_grid.items():
        found = scan_trace(res.trace_lines, cfg.sim_duration, cfg.warmup,
                           cfg.detection_delay)
        problems += [f"{scheme}/M={m}: {p}" for p in found]
        txs = collect_transmissions(load_records(res.trace_lines),
                                    cfg.sim_duration)
        busy = union_measure([(t.start, t.end) for t in txs], cfg.warmup,
                             cfg.sim_duration)
        frac = busy / (cfg.sim_duration - cfg.warmup)
        if frac != res.summary.channel_busy_fraction:
            problems.append(f"{scheme}/M={m}: busy-time conservation broken "
                            f"({frac} vs {res.summary.channel_busy_fraction})")
        replayed = replay_csv_row(res.trace_lines, scheme, m, cfg.n_regular, 1,
                                  cfg.sim_duration, cfg.warmup,
                                  cfg.regular.payload_bits)
        if replayed != summary_row(res.summary):
            problems.append(f"{scheme}/M={m}: trace replay disagrees with the "
                            f"summary row")
    ok = problems == []
    report(6, ok, f"independent scan + replay of {len(traced_grid)} traces: "
           f"{'no violations' if ok else problems[:4]}")


def test_criterion_7_determinism(tmp_path):
    cfg = ScenarioConfig(n_regular=5, m_list=(1, 5), schemes=("legacy", "proposed"),
                         seeds=(1, 2), sim_duration=2_000_000, warmup=200_000)
    csv_a = render_csv(run_sweep(cfg))
    csv_b = render_csv(run_sweep(cfg))
    point_a = summary_row(run_single(cfg.run_config("proposed", 5, 2)).summary)
    rows = {tuple(line.split(",")[:4]): line for line in csv_a.splitlines()[1:]}
    point_in_sweep = rows[("proposed", "5", "5", "2")]  # (scheme, M, N, seed)
    ok = csv_a == csv_b and point_a == point_in_sweep
    report(7, ok, f"full-sweep CSV byte-identical across re-runs: "
           f"{csv_a == csv_b}; isolated grid point reproduces its row: "
           f"{point_a == point_in_sweep}")


def test_criterion_8_legacy_equivalence(traced_grid):
    tone_free = True
    for (scheme, m), (cfg, res) in traced_grid.items():
        if scheme != "legacy":
            continue
        kinds = count_kinds(res.trace_lines)
        if any(k in kinds for k in ("tone_on", "tone_off", "preempted")):
            tone_free = False
    # a lone legacy station with the low-latency parameters behaves as plain
    # EDCA: delay = AIFS(34) + backoff in {0..3} slots + 200 + 16 + 44
    res = run_single(ScenarioConfig(n_regular=0, sim_duration=10_000_000)
                     .run_config("legacy", 1, 2, trace=True))
    delays = urllc_delays(res.trace_lines)
    allowed = {294 + 9 * k for k in range(4)}
    delays_ok = set(delays) <= allowed and len(set(delays)) >= 3
    ok = tone_free and delays_ok
    report(8, ok, f"legacy traces free of tone/preemption events: {tone_free}; "
           f"lone legacy low-latency station shows plain EDCA delays "
           f"{sorted(set(delays))} within {sorted(allowed)} "
           f"over {len(delays)} delivered frames")
