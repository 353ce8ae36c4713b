import json

import pytest

from btwifi.config import EdcaParams, PhyConstants
from btwifi.engine import Engine
from btwifi.mac import Frame, Station
from btwifi.medium import Medium
from btwifi.trace import Tracer
from btwifi.urllc import UrllcStation

PHY = PhyConstants(slot_time=9, sifs=16, ack_timeout_guard=9)
REGULAR = EdcaParams(aifsn=3, cw_min=15, cw_max=1023, retry_limit=7,
                     data_airtime=2000, ack_airtime=44, payload_bits=129760)
URLLC = EdcaParams(aifsn=2, cw_min=3, cw_max=15, retry_limit=7,
                   data_airtime=200, ack_airtime=44, payload_bits=1600)


class ScriptedRng:
    """Stand-in stream that pops preset values and records each request."""

    def __init__(self, values=()):
        self.values = list(values)
        self.uniform_calls = []  # (lo, hi) per backoff draw
        self.exp_calls = []

    def uniform_int(self, lo, hi):
        self.uniform_calls.append((lo, hi))
        v = self.values.pop(0) if self.values else 0
        assert lo <= v <= hi, f"scripted value {v} outside [{lo}, {hi}]"
        return v

    def exponential(self, mean):
        self.exp_calls.append(mean)
        return self.values.pop(0) if self.values else mean


class Bench:
    """Hand-wired micro-BSS for timeline tests; traffic enqueued manually."""

    def __init__(self, duration=10_000_000, warmup=0, detection_delay=0):
        self.engine = Engine()
        self.collector = Tracer(warmup, duration)
        self.medium = Medium(self.engine, detection_delay, self.collector)
        self.duration = duration
        self.stations = {}
        self._frame_n = 0

    def add_regular(self, sta_id, draws=(), params=REGULAR):
        sta = Station(sta_id, "regular", params, PHY, self.medium,
                      ScriptedRng(draws))
        self.stations[sta_id] = sta
        return sta

    def add_urllc(self, sta_id, draws=(), params=URLLC):
        sta = UrllcStation(sta_id, "urllc", params, PHY, self.medium,
                           ScriptedRng(draws))
        self.stations[sta_id] = sta
        return sta

    def add_legacy_urllc(self, sta_id, draws=(), params=URLLC):
        sta = Station(sta_id, "urllc", params, PHY, self.medium,
                      ScriptedRng(draws))
        self.stations[sta_id] = sta
        return sta

    def enqueue_at(self, t, sta):
        self._frame_n += 1
        fid = f"{sta.sta_id}:{self._frame_n}"
        self.engine.schedule(
            t, lambda: sta.enqueue(Frame(fid, sta.engine.now)))
        return fid

    def run(self, until=None):
        self.engine.run_until(self.duration if until is None else until)

    def events(self, kind=None):
        recs = [json.loads(line) for line in self.collector.trace_lines()]
        if kind is None:
            return recs
        return [r for r in recs if r["kind"] == kind]


@pytest.fixture
def bench():
    return Bench()


def backoff(sta):
    """(counter, fire_at) of sta: the backoff slots left as of its last
    freeze or arm, and the instant its armed counter hits 0, None while it
    is not armed.  Read from its AccessClass: a station armed alone, or
    held due, keeps its counter and instant in ac.alone; one in the class
    heap has counter key - offset, armed only while the class counts."""
    ac = sta.ac
    if sta in ac.alone:
        return sta._counter, ac.alone[sta][0]
    key = next((key for key, _, other in ac.heap if other is sta), None)
    if key is None:
        return sta._counter, None
    return key - ac.offset, None if ac.since is None else ac.fire_at(key)


def trace_lines(lines):
    """The TraceLines of lines, built as a run builds its own: each line
    emitted through a Tracer.  No line may hold a newline."""
    tracer = Tracer(0, 1)
    for line in lines:
        tracer.emit(line)
    return tracer.trace_lines()
