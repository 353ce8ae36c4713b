"""Property runs over random small configurations.

Hypothesis draws valid scenarios far from the defaults: up to 4 regular
and 3 URLLC stations, at most 50 ms, short data frames and acks (the 20 us
regular ack among them), small contention windows and retry limits, and a
detection delay d of 0, 3, 34 (the URLLC AIFS) or 43 us.  Each run must
balance its frame books, audit clean, replay to its own summary row and
reproduce byte for byte; a legacy run must also not depend on the order
of same-microsecond events, and no run may leave a reference cycle behind.
derandomize=True draws the same examples on every run, so a failure always
reproduces.
"""

import json
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from btwifi.config import ScenarioConfig
from btwifi.simulation import run_single
from btwifi.sweep import summary_row
from btwifi.tracecheck import replay_csv_row, scan_trace
from differential import draw_small, scenario
from test_simulation import cyclic_garbage
from test_ties import assert_order_free

DEFAULTS = ScenarioConfig()


@st.composite
def small_scenarios(draw):
    """(config, scheme, M, seed) of one small valid run, over the ranges
    that differential.SMALL_RANGES gives its random points."""
    point = draw_small(lambda values: draw(st.sampled_from(values)),
                       lambda lo, hi: draw(st.integers(lo, hi)))
    return (scenario(DEFAULTS, point["config"]), point["scheme"], point["m"],
            point["seed"])


def assert_books_balance(records, summary, cfg, m):
    """arrivals == delivered + dropped + in flight, per class, from the trace;
    each frame closes at most once, after it arrived, and a station holds
    at most one frame."""
    arrived, closed = {}, Counter()
    for r in records:
        if r["kind"] == "arrival":
            arrived[r["frame"]] = r["cls"]
        elif r["kind"] in ("delivered", "dropped"):
            assert r["frame"] in arrived and r["frame"] not in closed, r
            closed[r["frame"]] += 1
    for cls, stations in (("regular", cfg.n_regular), ("urllc", m)):
        frames = [f for f, c in arrived.items() if c == cls]
        done = [f for f in frames if f in closed]
        assert 0 <= len(frames) - len(done) <= stations, cls
    delivered, dropped = (
        Counter(arrived[r["frame"]] for r in records if r["kind"] == kind)
        for kind in ("delivered", "dropped"))
    assert (summary.regular_delivered, summary.urllc_delivered,
            summary.urllc_dropped) == (delivered["regular"], delivered["urllc"],
                                       dropped["urllc"])


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_scenarios())
def test_small_runs_keep_every_contract(monkeypatch, scenario):
    cfg, scheme, m, seed = scenario
    rc = cfg.run_config(scheme, m, seed, trace=True)
    res = run_single(rc)
    lines = res.trace_lines
    assert_books_balance([json.loads(line) for line in lines], res.summary, cfg, m)
    assert scan_trace(lines, cfg.sim_duration, cfg.warmup, cfg.detection_delay) == []
    row = summary_row(res.summary)
    assert replay_csv_row(lines, scheme, m, cfg.n_regular, seed, cfg.sim_duration,
                          cfg.warmup, cfg.regular.payload_bits) == row
    again = run_single(rc)
    assert summary_row(again.summary) == row and again.trace_lines == lines
    if scheme == "legacy":
        assert_order_free(monkeypatch, cfg, scheme, ms=(m,))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(small_scenarios())
def test_small_runs_leave_no_reference_cycle(scenario):
    cfg, scheme, m, seed = scenario
    for trace in (False, True):
        rc = cfg.run_config(scheme, m, seed, trace=trace)
        assert cyclic_garbage(lambda: run_single(rc)) == 0, trace
