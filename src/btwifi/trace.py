"""Run-trace recording: one JSON object per simulation event of interest.

The trace is the externally checkable record of a run.  Everything the
summary claims (delays, throughput, busy fraction, preemption/tone
behaviour) can be recomputed from it by an independent scanner, so the
records carry absolute times and stable ids rather than simulator-internal
references.

Each record is written by one format string per kind, in the key order and
with the compact separators of json.dumps(record, separators=(",", ":")).
No string is escaped: the simulator generates every one, the ids as r{i},
u{j}, ap and <sta>:<n> and every other string as a module constant, and none
holds a quote, a backslash or a control character.  tests/test_trace.py
keeps json.dumps as the oracle for every kind.

A finished run's lines are a TraceLines: a tuple, so they cannot change
after the run, which lets tracecheck.load_records keep its fold of them on
the value and every later audit of the run reuse that one parse.
"""

from __future__ import annotations

from .medium import ABORTED
from .metrics import MetricsCollector


class TraceLines(tuple):
    """The JSONL lines of a finished run, in order.

    fold is the tracecheck.Trace that load_records folded from these lines,
    or None until a fold has succeeded; nothing else writes it.
    """

    fold = None


class Tracer(MetricsCollector):
    """A collector that also keeps each event as a JSONL line, calling the
    MetricsCollector hook by name first; an aborted tx_end adds a preempted one."""

    def __init__(self, warmup, duration) -> None:
        super().__init__(warmup, duration)
        self.lines: list[str] = []

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def on_arrival(self, t, sta, cls, frame) -> None:
        MetricsCollector.on_arrival(self, t, sta, cls, frame)
        self.emit(f'{{"t":{t},"kind":"arrival","sta":"{sta}",'
                  f'"frame":"{frame.frame_id}","cls":"{cls}"}}')

    def on_tx_start(self, t, tx, busy_edge) -> None:
        MetricsCollector.on_tx_start(self, t, tx, busy_edge)
        if tx.frame_id is None:
            self.emit(f'{{"t":{t},"kind":"tx_start","sta":"{tx.sta}",'
                      f'"tx":{tx.tx_id},"ftype":"{tx.ftype}","dur":{tx.end - t}}}')
        else:
            self.emit(f'{{"t":{t},"kind":"tx_start","sta":"{tx.sta}",'
                      f'"tx":{tx.tx_id},"ftype":"{tx.ftype}","dur":{tx.end - t},'
                      f'"frame":"{tx.frame_id}"}}')

    def on_tx_end(self, t, tx, outcome, idle_edge) -> None:
        MetricsCollector.on_tx_end(self, t, tx, outcome, idle_edge)
        self.emit(f'{{"t":{t},"kind":"tx_end","tx":{tx.tx_id},"outcome":"{outcome}"}}')
        if outcome == ABORTED:
            self.emit(f'{{"t":{t},"kind":"preempted","sta":"{tx.sta}",'
                      f'"frame":"{tx.frame_id}"}}')

    def on_tone_on(self, t, sta, fast) -> None:
        MetricsCollector.on_tone_on(self, t, sta, fast)
        self.emit(f'{{"t":{t},"kind":"tone_on","sta":"{sta}",'
                  f'"fast":{"true" if fast else "false"}}}')

    def on_tone_off(self, t, sta, reason) -> None:
        MetricsCollector.on_tone_off(self, t, sta, reason)
        self.emit(f'{{"t":{t},"kind":"tone_off","sta":"{sta}","reason":"{reason}"}}')

    def on_delivered(self, t, sta, cls, frame, payload_bits) -> None:
        MetricsCollector.on_delivered(self, t, sta, cls, frame, payload_bits)
        self.emit(f'{{"t":{t},"kind":"delivered","sta":"{sta}",'
                  f'"frame":"{frame.frame_id}","delay":{t - frame.arrival_time}}}')

    def on_dropped(self, t, sta, cls, frame) -> None:
        MetricsCollector.on_dropped(self, t, sta, cls, frame)
        self.emit(f'{{"t":{t},"kind":"dropped","sta":"{sta}","frame":"{frame.frame_id}"}}')
