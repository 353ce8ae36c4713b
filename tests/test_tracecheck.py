import json

from btwifi.config import ScenarioConfig
from btwifi.simulation import run_single
from btwifi.sweep import summary_row
from btwifi.tracecheck import (collect_transmissions, count_kinds,
                               load_records, mark_overlaps, replay_csv_row,
                               scan_trace, tone_spans, union_measure)

CFG = ScenarioConfig(n_regular=3, sim_duration=2_000_000, warmup=200_000)


def traced_run(scheme, m, seed=1, cfg=CFG):
    return run_single(cfg.run_config(scheme, m, seed, trace=True))


def test_union_measure():
    assert union_measure([(0, 10), (5, 20), (30, 40)], 0, 100) == 30
    assert union_measure([(0, 10)], 5, 8) == 3
    assert union_measure([], 0, 100) == 0
    assert union_measure([(0, 10), (10, 20)], 0, 100) == 20


def test_mark_overlaps_pairs_and_chains():
    mk = lambda i, s, e: type("T", (), {"tx": i, "start": s, "end": e})()
    txs = [mk(0, 0, 100), mk(1, 0, 50), mk(2, 60, 70), mk(3, 100, 120),
           mk(4, 200, 210)]
    assert mark_overlaps(txs) == {0, 1, 2}


def test_scanner_accepts_real_traces():
    for scheme in ("legacy", "proposed"):
        for m in (0, 1, 3):
            res = traced_run(scheme, m)
            problems = scan_trace(res.trace_lines, CFG.sim_duration, CFG.warmup)
            assert problems == [], (scheme, m, problems[:3])


def test_scanner_flags_injected_clean_overlap():
    res = traced_run("proposed", 2)
    lines = list(res.trace_lines)
    # forge a "clean" transmission overlapping an existing clean one
    victim = next(json.loads(l) for l in lines
                  if json.loads(l)["kind"] == "tx_start")
    fake_start = dict(t=victim["t"] + 1, kind="tx_start", sta="zz", tx=999999,
                      ftype="regular-data", dur=50)
    fake_end = dict(t=victim["t"] + 51, kind="tx_end", tx=999999,
                    outcome="clean")
    lines += [json.dumps(fake_start), json.dumps(fake_end)]
    problems = scan_trace(lines, CFG.sim_duration, CFG.warmup)
    assert any("clean but overlaps" in p for p in problems)


def test_scanner_flags_regular_data_inside_tone():
    res = traced_run("proposed", 2)
    lines = list(res.trace_lines)
    tone = next(json.loads(l) for l in lines
                if json.loads(l)["kind"] == "tone_on")
    fake_start = dict(t=tone["t"] + 5, kind="tx_start", sta="zz", tx=888888,
                      ftype="regular-data", dur=40)
    fake_end = dict(t=tone["t"] + 45, kind="tx_end", tx=888888,
                    outcome="collided")
    lines += [json.dumps(fake_start), json.dumps(fake_end)]
    problems = scan_trace(lines, CFG.sim_duration, CFG.warmup)
    assert any("tone interval" in p for p in problems)


def test_scanner_flags_wrong_end_time():
    res = traced_run("legacy", 1)
    lines = list(res.trace_lines)
    lines += [json.dumps(dict(t=100, kind="tx_start", sta="zz", tx=777777,
                              ftype="ack", dur=44)),
              json.dumps(dict(t=150, kind="tx_end", tx=777777,
                              outcome="clean"))]
    problems = scan_trace(lines, CFG.sim_duration, CFG.warmup)
    assert any("scheduled" in p for p in problems)


def test_tone_spans_merge_overlapping_holders():
    recs = [dict(t=10, kind="tone_on", sta="a", fast=True),
            dict(t=20, kind="tone_on", sta="b", fast=False),
            dict(t=30, kind="tone_off", sta="a", reason="delivered"),
            dict(t=50, kind="tone_off", sta="b", reason="delivered"),
            dict(t=70, kind="tone_on", sta="c", fast=True)]
    assert tone_spans(recs, 100) == [(10, 50), (70, 100)]


def test_conservation_busy_fraction_matches_summary():
    for scheme in ("legacy", "proposed"):
        res = traced_run(scheme, 2)
        txs = collect_transmissions(load_records(res.trace_lines),
                                    CFG.sim_duration)
        busy = union_measure([(t.start, t.end) for t in txs],
                             CFG.warmup, CFG.sim_duration)
        window = CFG.sim_duration - CFG.warmup
        assert busy / window == res.summary.channel_busy_fraction


def test_replay_reproduces_the_csv_row():
    for scheme, m in (("legacy", 2), ("proposed", 2), ("proposed", 0)):
        res = traced_run(scheme, m, seed=4)
        row = replay_csv_row(res.trace_lines, scheme, m, CFG.n_regular, 4,
                             CFG.sim_duration, CFG.warmup,
                             CFG.regular.payload_bits)
        assert row == summary_row(res.summary)


def test_legacy_traces_have_no_tone_or_preemption_events():
    res = traced_run("legacy", 3)
    kinds = count_kinds(res.trace_lines)
    assert "tone_on" not in kinds
    assert "tone_off" not in kinds
    assert "preempted" not in kinds


def test_trace_is_byte_identical_across_reruns():
    a = traced_run("proposed", 3, seed=9)
    b = traced_run("proposed", 3, seed=9)
    assert a.trace_lines == b.trace_lines
    c = traced_run("proposed", 3, seed=10)
    assert a.trace_lines != c.trace_lines
