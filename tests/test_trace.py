"""Tracer writes each record with a format string of its own kind; json.dumps
of the same fields, in the same key order, is the oracle for every one.  A
run's TraceLines reads as the lines it emitted, and keeps them as blocks."""

import json
import sys

import pytest

from btwifi.config import ScenarioConfig
from btwifi.mac import Frame
from btwifi.medium import ABORTED, CLEAN, COLLIDED, Transmission
from btwifi.simulation import run_single
from btwifi.trace import BLOCK, TraceLines, Tracer


def dumps(**record):
    return json.dumps(record, separators=(",", ":"))


def data_tx(tx_id, sta, frame_id, end, ftype="regular-data"):
    return Transmission(tx_id, sta, ftype, frame_id, end, on_end=None, medium=None)


def test_every_record_kind_matches_json_dumps():
    tr = Tracer(0, 10_000)
    frame = Frame("r3:17", 40)
    urllc_frame = Frame("u0:2", 90)
    ack = Transmission(7, "ap", "ack", None, 2160, on_end=None, medium=None)
    cases = [
        (lambda: tr.on_arrival(40, "r3", "regular", frame),
         [dumps(t=40, kind="arrival", sta="r3", frame="r3:17", cls="regular")]),
        (lambda: tr.on_tx_start(100, data_tx(5, "r3", "r3:17", 2100), True),
         [dumps(t=100, kind="tx_start", sta="r3", tx=5, ftype="regular-data",
                dur=2000, frame="r3:17")]),
        (lambda: tr.on_tx_start(2116, ack, False),
         [dumps(t=2116, kind="tx_start", sta="ap", tx=7, ftype="ack", dur=44)]),
        (lambda: tr.on_tx_end(2100, data_tx(5, "r3", "r3:17", 2100), CLEAN, True),
         [dumps(t=2100, kind="tx_end", tx=5, outcome="clean")]),
        (lambda: tr.on_tx_end(2100, data_tx(6, "r1", "r1:4", 2100), COLLIDED, False),
         [dumps(t=2100, kind="tx_end", tx=6, outcome="collided")]),
        (lambda: tr.on_tx_end(150, data_tx(8, "r2", "r2:9", 2050), ABORTED, False),
         [dumps(t=150, kind="tx_end", tx=8, outcome="aborted"),
          dumps(t=150, kind="preempted", sta="r2", frame="r2:9")]),
        (lambda: tr.on_tone_on(90, "u0", True),
         [dumps(t=90, kind="tone_on", sta="u0", fast=True)]),
        (lambda: tr.on_tone_on(95, "u1", False),
         [dumps(t=95, kind="tone_on", sta="u1", fast=False)]),
        (lambda: tr.on_tone_off(400, "u0", "delivered"),
         [dumps(t=400, kind="tone_off", sta="u0", reason="delivered")]),
        (lambda: tr.on_tone_off(900, "u1", "dropped"),
         [dumps(t=900, kind="tone_off", sta="u1", reason="dropped")]),
        (lambda: tr.on_delivered(2160, "r3", "regular", frame, 1600),
         [dumps(t=2160, kind="delivered", sta="r3", frame="r3:17", delay=2120)]),
        (lambda: tr.on_delivered(384, "u0", "urllc", urllc_frame, 1600),
         [dumps(t=384, kind="delivered", sta="u0", frame="u0:2", delay=294)]),
        (lambda: tr.on_dropped(5000, "u0", "urllc", urllc_frame),
         [dumps(t=5000, kind="dropped", sta="u0", frame="u0:2")]),
    ]
    for call, want in cases:
        before = len(tr.trace_lines())
        call()
        assert list(tr.trace_lines())[before:] == want


@pytest.mark.parametrize("scheme", ["legacy", "proposed"])
def test_a_run_writes_each_record_once_through_emit_and_needs_no_escaping(
        scheme, monkeypatch):
    calls = []
    original = Tracer.emit

    def counted(self, line):
        calls.append(line)
        original(self, line)
    monkeypatch.setattr(Tracer, "emit", counted)
    cfg = ScenarioConfig(n_regular=3, sim_duration=300_000, warmup=30_000)
    tl = run_single(cfg.run_config(scheme, 3, 1, trace=True)).trace_lines
    lines = list(tl)
    assert lines and calls == lines
    # an id or constant that needed escaping would be re-encoded differently
    for line in lines:
        assert json.dumps(json.loads(line), separators=(",", ":")) == line
    # the TraceLines reads as its lines: over two blocks and a short last one
    assert len(lines) > 2 * BLOCK and len(lines) % BLOCK and len(tl) == len(lines)
    assert tl[0] == lines[0] and tl[-1] == lines[-1]
    assert [tl[i] for i in range(-len(tl), len(tl))] == lines * 2
    for i in (len(tl), -len(tl) - 1):
        with pytest.raises(IndexError):
            tl[i]
    again = TraceLines(lines)
    assert again == tl and again.blocks == tl.blocks
    assert TraceLines(lines[:-1]) != tl
    assert TraceLines(lines[:-1] + [lines[-1] + " "]) != tl


def test_trace_lines_refuse_a_line_that_holds_a_newline():
    assert list(TraceLines(["{}", "", " {} "])) == ["{}", "", " {} "]
    assert list(TraceLines([])) == [] and list(TraceLines([""])) == [""]
    for i in (0, 1, BLOCK + 4):
        lines = ["{}"] * (BLOCK + 5)
        lines[i] = "{}\n{}"
        with pytest.raises(ValueError, match=f"^line {i + 1} holds a newline$"):
            TraceLines(lines)


def test_a_kept_trace_costs_little_more_than_its_text():
    cfg = ScenarioConfig(sim_duration=2_000_000, warmup=200_000)
    tl = run_single(cfg.run_config("proposed", 15, 1, trace=True)).trace_lines
    text_bytes = sum(len(line) + 1 for line in tl)
    assert text_bytes == sum(len(block) + 1 for block in tl.blocks)
    assert sum(map(sys.getsizeof, tl.blocks)) <= 1.1 * text_bytes
