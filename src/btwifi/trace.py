"""Run-trace recording: one JSON object per simulation event of interest.

The trace is the externally checkable record of a run.  Everything the
summary claims (delays, throughput, busy fraction, preemption/tone
behaviour) can be recomputed from it by an independent scanner, so the
records carry absolute times and stable ids rather than simulator-internal
references.
"""

from __future__ import annotations

import json


class Tracer:
    """Collects trace records as pre-serialized JSONL lines."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, record: dict) -> None:
        self.lines.append(json.dumps(record, separators=(",", ":")))

    def arrival(self, t, sta, frame, cls) -> None:
        self.emit({"t": t, "kind": "arrival", "sta": sta, "frame": frame, "cls": cls})

    def tx_start(self, t, sta, tx, ftype, dur, frame=None) -> None:
        rec = {"t": t, "kind": "tx_start", "sta": sta, "tx": tx,
               "ftype": ftype, "dur": dur}
        if frame is not None:
            rec["frame"] = frame
        self.emit(rec)

    def tx_end(self, t, tx, outcome) -> None:
        self.emit({"t": t, "kind": "tx_end", "tx": tx, "outcome": outcome})

    def tone_on(self, t, sta, fast) -> None:
        self.emit({"t": t, "kind": "tone_on", "sta": sta, "fast": fast})

    def tone_off(self, t, sta, reason) -> None:
        self.emit({"t": t, "kind": "tone_off", "sta": sta, "reason": reason})

    def preempted(self, t, sta, frame) -> None:
        self.emit({"t": t, "kind": "preempted", "sta": sta, "frame": frame})

    def delivered(self, t, sta, frame, delay) -> None:
        self.emit({"t": t, "kind": "delivered", "sta": sta, "frame": frame,
                   "delay": delay})

    def dropped(self, t, sta, frame) -> None:
        self.emit({"t": t, "kind": "dropped", "sta": sta, "frame": frame})
