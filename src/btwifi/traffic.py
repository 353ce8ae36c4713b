"""Frame arrival processes.

Regular stations are saturated: a fresh frame is enqueued the instant the
previous one leaves the system, so the buffer is never empty.  Low-latency
stations regenerate after service: once a frame is delivered (or dropped -
a silent station forever would be useless), the next one arrives an
exponentially distributed time later.  Queue depth never exceeds one frame
by construction.

To avoid synchronized starts, each exponential source's first frame
arrives at a uniform random offset in [0, mean); saturated sources all
start at t=0.
"""

from __future__ import annotations

from .engine import Engine, RngStream, SimTime
from .mac import Frame, Station


class _Source:
    """Arrival bookkeeping shared by both processes: numbered frames,
    handed to the station the moment they arrive."""

    def __init__(self, station: Station) -> None:
        self.station = station
        station.source = self
        self._n = 0

    def _arrive(self) -> None:
        sta = self.station
        frame = Frame(f"{sta.sta_id}:{self._n}", sta.engine.now)
        self._n += 1
        sta.enqueue(frame)


class SaturatedSource(_Source):
    def start(self, engine: Engine) -> None:
        engine.schedule(0, self._arrive)

    def on_service_complete(self, outcome: str, at: SimTime) -> None:
        self._arrive()


class ExpAfterSuccessSource(_Source):
    def __init__(self, station: Station, mean_interarrival: SimTime,
                 rng: RngStream) -> None:
        if mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        super().__init__(station)
        self.mean = mean_interarrival
        self.rng = rng

    def start(self, engine: Engine) -> None:
        engine.schedule(self.rng.uniform_int(0, self.mean - 1), self._arrive)

    def on_service_complete(self, outcome: str, at: SimTime) -> None:
        gap = self.rng.exponential(self.mean)
        self.station.engine.schedule(at + gap, self._arrive)
