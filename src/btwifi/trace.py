"""Run-trace recording: one JSON object per simulation event of interest.

The trace is the externally checkable record of a run.  Everything the
summary claims (delays, throughput, busy fraction, preemption/tone
behaviour) can be recomputed from it by an independent scanner, so the
records carry absolute times and stable ids rather than simulator-internal
references.
"""

from __future__ import annotations

import json

from .metrics import MetricsCollector


class Tracer(MetricsCollector):
    """A collector that also keeps each event as a pre-serialized JSONL line."""

    def __init__(self, warmup, duration) -> None:
        super().__init__(warmup, duration)
        self.lines: list[str] = []

    def emit(self, record: dict) -> None:
        self.lines.append(json.dumps(record, separators=(",", ":")))

    def on_arrival(self, t, sta, cls, frame) -> None:
        super().on_arrival(t, sta, cls, frame)
        self.emit({"t": t, "kind": "arrival", "sta": sta, "frame": frame.frame_id,
                   "cls": cls})

    def on_tx_start(self, t, sta, tx, ftype, dur, frame_id) -> None:
        super().on_tx_start(t, sta, tx, ftype, dur, frame_id)
        rec = {"t": t, "kind": "tx_start", "sta": sta, "tx": tx,
               "ftype": ftype, "dur": dur}
        if frame_id is not None:
            rec["frame"] = frame_id
        self.emit(rec)

    def on_tx_end(self, t, tx, outcome) -> None:
        super().on_tx_end(t, tx, outcome)
        self.emit({"t": t, "kind": "tx_end", "tx": tx, "outcome": outcome})

    def on_tone_on(self, t, sta, fast) -> None:
        super().on_tone_on(t, sta, fast)
        self.emit({"t": t, "kind": "tone_on", "sta": sta, "fast": fast})

    def on_tone_off(self, t, sta, reason) -> None:
        super().on_tone_off(t, sta, reason)
        self.emit({"t": t, "kind": "tone_off", "sta": sta, "reason": reason})

    def on_preempted(self, t, sta, cls, frame) -> None:
        super().on_preempted(t, sta, cls, frame)
        self.emit({"t": t, "kind": "preempted", "sta": sta, "frame": frame.frame_id})

    def on_delivered(self, t, sta, cls, frame, payload_bits) -> None:
        super().on_delivered(t, sta, cls, frame, payload_bits)
        self.emit({"t": t, "kind": "delivered", "sta": sta, "frame": frame.frame_id,
                   "delay": t - frame.arrival_time})

    def on_dropped(self, t, sta, cls, frame) -> None:
        super().on_dropped(t, sta, cls, frame)
        self.emit({"t": t, "kind": "dropped", "sta": sta, "frame": frame.frame_id})
