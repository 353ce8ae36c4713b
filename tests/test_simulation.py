import contextlib
import csv
import gc
import io
import json
import os
import signal
from collections import Counter
from dataclasses import replace

import pytest

from btwifi.config import ScenarioConfig
from btwifi.engine import ContractViolation
from btwifi.mac import Station
from btwifi.medium import AccessClass
from btwifi.simulation import run_single
from btwifi.sweep import SweepError, render_csv, run_sweep


def test_two_saturated_stations_share_fairly():
    # >= 60 s simulated; per-station delivered counts within 5%.
    cfg = ScenarioConfig(n_regular=2, sim_duration=60_000_000, warmup=0)
    res = run_single(cfg.run_config("legacy", 0, 1, trace=True))
    per_sta = Counter(r["sta"] for r in map(json.loads, res.trace_lines)
                      if r["kind"] == "delivered")
    counts = [per_sta["r0"], per_sta["r1"]]
    assert abs(counts[0] - counts[1]) / max(counts) < 0.05


def test_frame_accounting_balances_at_sim_end():
    # finalize() asserts arrivals == delivered + dropped + in-flight; a run
    # completing without ContractViolation is the check itself.
    cfg = ScenarioConfig(n_regular=4, sim_duration=3_000_000, warmup=300_000)
    for scheme in ("legacy", "proposed"):
        res = run_single(cfg.run_config(scheme, 3, 5))
        s = res.summary
        assert s.regular_delivered > 0
        assert 0.0 <= s.channel_busy_fraction <= 1.0


def test_urllc_delay_mean_and_p99_are_at_least_the_fast_path():
    cfg = ScenarioConfig(n_regular=6, sim_duration=5_000_000, warmup=500_000)
    s = run_single(cfg.run_config("proposed", 8, 3)).summary
    assert s.urllc_delay_mean >= 294
    assert s.urllc_delay_p99 >= 294


def test_proposed_beats_legacy_on_delay_single_seed():
    cfg = ScenarioConfig(sim_duration=10_000_000)
    legacy = run_single(cfg.run_config("legacy", 5, 1)).summary
    proposed = run_single(cfg.run_config("proposed", 5, 1)).summary
    assert proposed.urllc_delay_mean < 0.2 * legacy.urllc_delay_mean
    assert proposed.regular_throughput_bps < legacy.regular_throughput_bps


def test_failed_run_identifies_its_grid_point(monkeypatch):
    import btwifi.sweep as sweep_mod

    def boom(run_cfg):
        raise ContractViolation("synthetic failure")

    monkeypatch.setattr(sweep_mod, "run_single", boom)
    cfg = ScenarioConfig(n_regular=1, m_list=(2,), schemes=("legacy",),
                         seeds=(9,), sim_duration=1_000_000, warmup=0)
    with pytest.raises(SweepError) as exc:
        sweep_mod.run_sweep(cfg)
    assert exc.value.point == ("legacy", 2, 9)
    assert "M=2" in str(exc.value) and "seed=9" in str(exc.value)


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body after `seconds`, so that a pool
    waiting for a result that never comes fails its test, not the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_failed_run_in_worker_pool_reports_its_point(monkeypatch):
    # a genuinely failing run surfaced through the spawn-based pool, of two
    # workers even where this process may use only one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = ScenarioConfig(n_regular=1, m_list=(1,), schemes=("bogus",),
                         seeds=(1, 2, 3, 4), sim_duration=1_000_000, warmup=0)
    with time_limit(60), pytest.raises(SweepError) as exc:
        run_sweep(cfg, jobs=2)
    # every point fails; the first in grid order is the one reported
    assert exc.value.point == ("bogus", 1, 1)


class ExitsWhenLoaded:
    """Stands in for a point's RunConfig; the worker process that unpickles
    it exits at once, as if it had been killed."""

    def __init__(self, run_cfg):
        self.scheme, self.m_urllc, self.seed = run_cfg.scheme, run_cfg.m_urllc, run_cfg.seed

    def __reduce__(self):
        return (os._exit, (3,))


def test_a_dead_worker_fails_the_sweep_at_its_point(monkeypatch):
    # the worker that takes the first point dies; the sweep reports that
    # point instead of waiting for its result
    run_config = ScenarioConfig.run_config

    def first_point_kills_its_worker(cfg, scheme, m, seed, trace=False):
        run_cfg = run_config(cfg, scheme, m, seed, trace=trace)
        return ExitsWhenLoaded(run_cfg) if seed == 1 else run_cfg

    monkeypatch.setattr(ScenarioConfig, "run_config", first_point_kills_its_worker)
    # a pool of two even where this process may use only one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = ScenarioConfig(n_regular=1, m_list=(1,), schemes=("legacy",),
                         seeds=(1, 2, 3), sim_duration=100_000, warmup=0)
    with time_limit(60), pytest.raises(SweepError) as exc:
        run_sweep(cfg, jobs=2)
    assert exc.value.point == ("legacy", 1, 1)
    assert "worker process died" in str(exc.value)


def test_cli_maps_run_failure_to_exit_2(monkeypatch, tmp_path, capsys):
    import btwifi.sweep as sweep_mod
    from btwifi.cli import main

    def boom(run_cfg):
        raise ContractViolation("synthetic failure")

    monkeypatch.setattr(sweep_mod, "run_single", boom)
    rc = main(["--scheme", "legacy", "--m", "1", "--seed", "1",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "simulate: run (scheme=legacy, M=1, seed=1) failed: synthetic failure"]


def test_csv_parses_with_standard_reader():
    cfg = ScenarioConfig(n_regular=2, m_list=(0, 1), schemes=("proposed",),
                         seeds=(1,), sim_duration=1_000_000, warmup=100_000)
    text = render_csv(run_sweep(cfg))
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    assert rows[0]["scheme"] == "proposed"
    assert int(rows[1]["M"]) == 1
    float(rows[1]["regular_throughput_bps"])
    float(rows[1]["urllc_delay_mean_us"])
    assert rows[0]["urllc_delay_mean_us"] == ""  # M=0 row


@pytest.mark.parametrize("delay", [3, 34])
def test_detection_delay_shifts_abort_but_not_fast_path(delay):
    # The preempted frame stops at tone+delay and the priority data still
    # launches at tone+34.  At 3 us that leaves 31 us of margin; at 34 us
    # (the URLLC AIFS) the two are back-to-back, which is not a collision.
    cfg = ScenarioConfig(n_regular=1, detection_delay=delay,
                         sim_duration=2_000_000, warmup=0)
    res = run_single(cfg.run_config("proposed", 1, 3, trace=True))
    from btwifi.tracecheck import scan_trace
    recs = [json.loads(line) for line in res.trace_lines]
    tones = [r["t"] for r in recs if r["kind"] == "tone_on"]
    aborts = [r["t"] for r in recs if r["kind"] == "tx_end"
              and r["outcome"] == "aborted"]
    assert aborts, "expected at least one preemption in 2 s of saturation"
    assert all(t - delay in tones for t in aborts)
    assert scan_trace(res.trace_lines, cfg.sim_duration, cfg.warmup,
                      detection_delay=delay) == []
    # the delay of a preempting arrival is unchanged: fast path is 294 us
    assert min(r["delay"] for r in recs
               if r["kind"] == "delivered" and r["sta"] == "u0") == 294


@pytest.mark.parametrize("scheme", ["legacy", "proposed"])
def test_the_medium_reports_each_transmission_fact_once(monkeypatch, scheme):
    # An untraced run with every collector hook counted: each transmission
    # start and end reaches the collector exactly once, through on_tx_start
    # and on_tx_end, and no other hook carries a channel fact.
    from btwifi import simulation
    from btwifi.medium import Medium
    from btwifi.metrics import MetricsCollector

    calls = Counter()  # collector hook -> calls
    starts, ends = [], Counter()  # the transmissions begun, the outcomes told
    made = []

    class Counting(MetricsCollector):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    for name in dir(MetricsCollector):
        if name.startswith("on_"):
            def hook(self, *args, _name=name):
                calls[_name] += 1
                return getattr(MetricsCollector, _name)(self, *args)
            setattr(Counting, name, hook)

    begin = Medium.begin_transmission

    def counted_begin(self, sta, ftype, duration, on_end, frame_id=None):
        starts.append(ftype)

        def counted_end(outcome):
            ends[outcome] += 1
            on_end(outcome)
        return begin(self, sta, ftype, duration, counted_end, frame_id)

    cfg = ScenarioConfig(n_regular=6, sim_duration=500_000, warmup=50_000)
    twin = run_single(cfg.run_config(scheme, 5, 1, trace=True))
    monkeypatch.setattr(simulation, "MetricsCollector", Counting)
    monkeypatch.setattr(Medium, "begin_transmission", counted_begin)
    summary = run_single(cfg.run_config(scheme, 5, 1)).summary
    (collector,) = made

    assert starts and calls["on_tx_start"] == len(starts)
    assert calls["on_tx_end"] == sum(ends.values())
    allowed = {"on_arrival", "on_delivered", "on_dropped", "on_tx_start", "on_tx_end"}
    if scheme == "proposed":
        allowed |= {"on_tone_on", "on_tone_off"}
    assert set(calls) <= allowed

    # the counts equal those read from the traced twin's tx_end outcomes
    recs = [json.loads(line) for line in twin.trace_lines]
    assert len(starts) == sum(r["kind"] == "tx_start" for r in recs)
    ftype = {r["tx"]: r["ftype"] for r in recs if r["kind"] == "tx_start"}
    outcomes = Counter((ftype[r["tx"]], r["outcome"]) for r in recs
                       if r["kind"] == "tx_end")
    assert collector.collided == {
        cls: outcomes[f"{cls}-data", "collided"] for cls in ("regular", "urllc")}
    assert collector.preempted == sum(
        n for (_, outcome), n in outcomes.items() if outcome == "aborted")
    assert summary.urllc_collided == collector.collided["urllc"]
    assert summary.regular_preempted == collector.preempted
    assert collector.collided["regular"] > 0
    assert (collector.preempted > 0) == (scheme == "proposed")


# -- a finished run frees what it built ------------------------------------------

def cyclic_garbage(fn) -> int:
    """The objects that only the cyclic garbage collector could free once
    fn() has returned; fn's result is dropped."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("scheme, delay", [("legacy", 0), ("proposed", 0), ("proposed", 3),
                                           ("proposed", 34), ("proposed", 50)])
def test_a_run_leaves_no_reference_cycle(scheme, delay, trace):
    cfg = ScenarioConfig(detection_delay=delay, sim_duration=50_000, warmup=5_000)
    for m in (0, 1, 15, 40):
        rc = cfg.run_config(scheme, m, 1, trace=trace)
        assert cyclic_garbage(lambda: run_single(rc)) == 0, m


def cut_records(cfg, scheme, m, t):
    """The records of the run cut one microsecond after t, a run that must
    leave no reference cycle."""
    rc = replace(cfg, sim_duration=t + 1).run_config(scheme, m, 1, trace=True)
    kept = []
    assert cyclic_garbage(lambda: kept.append(run_single(rc).trace_lines)) == 0
    return [json.loads(line) for line in kept[0]]


def test_a_run_cut_mid_exchange_leaves_no_reference_cycle():
    # Cut just after a no-backoff tone onset that falls on a frame on air:
    # the run ends with that frame on air, the tone up and its heard busy
    # edge d = 34 us away still pending.
    cfg = ScenarioConfig(detection_delay=34, sim_duration=200_000, warmup=0)
    on_air, onset = set(), None
    lines = run_single(cfg.run_config("proposed", 5, 1, trace=True)).trace_lines
    for r in map(json.loads, lines):
        if r["kind"] == "tx_start":
            on_air.add(r["tx"])
        elif r["kind"] == "tx_end":
            on_air.discard(r["tx"])
        elif r["kind"] == "tone_on" and r["fast"] and on_air:
            onset = r["t"]
            break
    assert onset is not None
    records = cut_records(cfg, "proposed", 5, onset)
    assert records[-1]["kind"] == "tone_on" and records[-1]["t"] == onset
    ended = {r["tx"] for r in records if r["kind"] == "tx_end"}
    assert any(r["kind"] == "tx_start" and r["tx"] not in ended for r in records)


def test_a_run_cut_while_a_station_is_armed_leaves_no_reference_cycle():
    # A lone station's first frame arrives on an idle channel, so the
    # station arms alone on its own event; the run ends before it fires.
    cfg = ScenarioConfig(n_regular=0, sim_duration=20_000, warmup=0)
    first = json.loads(run_single(cfg.run_config("legacy", 1, 1, trace=True)).trace_lines[0])
    assert first["kind"] == "arrival"
    assert [r["kind"] for r in cut_records(cfg, "legacy", 1, first["t"])] == ["arrival"]


# where a run raises: after the 20th ack start, with frames on air and
# stations waiting; after a busy edge that leaves stations due on their
# class's held event
RAISE_AFTER = {"ack": (Station, "_start_ack", lambda self, calls: calls == 20),
               "held": (AccessClass, "stop", lambda self, calls: bool(self.due))}


@pytest.mark.parametrize("scheme, where", [("legacy", "ack"), ("proposed", "ack"),
                                           ("legacy", "held")])
def test_a_run_that_raises_leaves_no_reference_cycle(monkeypatch, scheme, where):
    # The release runs in a finally: nothing is left once the exception is dropped.
    owner, name, now = RAISE_AFTER[where]
    original = getattr(owner, name)
    calls = []

    def failing(self, *args, **kwargs):
        original(self, *args, **kwargs)
        calls.append(name)
        if now(self, len(calls)):
            raise ContractViolation(f"synthetic failure in {name}")

    monkeypatch.setattr(owner, name, failing)
    rc = ScenarioConfig(detection_delay=3, sim_duration=1_000_000,
                        warmup=0).run_config(scheme, 15, 1)
    failures = []

    def run():
        try:
            run_single(rc)
        except ContractViolation as exc:
            failures.append(str(exc))

    assert cyclic_garbage(run) == 0
    assert failures == [f"synthetic failure in {name}"]
