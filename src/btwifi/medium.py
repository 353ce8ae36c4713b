"""The shared radio: main data channel plus the narrowband tone channel.

Main channel model: no capture, no noise.  A transmission is delivered iff
its airtime interval [start, end) intersects no other transmission's
interval; back-to-back frames (one ending exactly when the next starts) do
not collide, whichever event was scheduled first.  A frame whose end falls
at a new frame's start only touches it, so neither is marked; it stays
active until its own end event, and the channel has no busy/idle edge in
between.  A frame leaves the channel only by its end event or by an abort.
Aborted transmissions keep their truncated interval for overlap purposes -
the energy was on air.

Tone channel model: a set of stations may assert a continuous tone;
listeners only see busy/idle, so overlapping tones are indistinguishable
from a single one.  A tone released at t still counts as asserted before
t (``Medium.tone_asserted_before``), and at a detection delay d > 0 a
release and an assertion in one microsecond leave the heard level busy
with no edge at t + d, so the order of the two decides nothing.  Single
broadcast domain, no hidden stations: main-channel transitions reach every
station, tone transitions reach every station that obeys the tone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .engine import ContractViolation, Engine, SimTime

CLEAN = "clean"
COLLIDED = "collided"
ABORTED = "aborted"


@dataclass(slots=True)
class Transmission:
    tx_id: int
    sta: str
    on_end: Callable[[str], None]
    dirty: bool = False  # overlapped some other transmission at any point
    _end_ev: object = None


class Medium:
    """Owns both channels; mutated only from its run's event loop.

    listeners is the ordered list told about main-channel busy/idle edges:
    the collector first, which measures busy time from them, then the
    stations.  tone_listeners lists, in the same order, the stations that
    obey the tone and are told about its edges.  Each station appends
    itself when it is built, so both lists follow construction order, and
    broadcasts iterate them in that order so runs are reproducible.

    tone_heard is the control level the listeners last heard: it changes
    at the heard instant, detection_delay after the first assertion or the
    last release, before any listener is told.  A release followed by an
    assertion in the same microsecond does not change it.  A station that
    obeys the tone reads it to know that it is suspended.
    """

    def __init__(self, engine: Engine, detection_delay: SimTime, collector) -> None:
        self.engine = engine
        self.detection_delay = detection_delay
        self.collector = collector
        self.listeners: list = [collector]
        self.tone_listeners: list = []
        self.tone_heard = False
        self._active: dict[int, Transmission] = {}
        self._next_tx_id = 0
        self._tones: dict[str, SimTime] = {}  # sta -> assertion time
        self._released_at: SimTime = -1  # instant of the latest release
        self._last_edge: object = None  # the heard edge scheduled last

    # -- main data channel ------------------------------------------------

    def is_main_busy(self) -> bool:
        return bool(self._active)

    def begin_transmission(self, sta: str, ftype: str, duration: SimTime,
                           on_end: Callable[[str], None], frame_id=None) -> Transmission:
        now = self.engine.now
        was_idle = not self._active
        dirty = False
        for other in self._active.values():
            if other._end_ev[0] == now:  # touches this frame; ends by its own event
                continue
            if other.sta == sta:
                raise ContractViolation(f"{sta} began a second transmission at t={now}")
            other.dirty = dirty = True
        tx = Transmission(self._next_tx_id, sta, on_end, dirty=dirty)
        self._next_tx_id += 1
        self._active[tx.tx_id] = tx
        tx._end_ev = self.engine.schedule(now + duration, lambda: self._finish(tx))
        self.collector.on_tx_start(now, sta, tx.tx_id, ftype, duration, frame_id)
        if was_idle:
            for listener in self.listeners:
                listener.on_main_busy(now)
        return tx

    def abort_transmission(self, tx: Transmission) -> None:
        if tx.tx_id not in self._active:
            raise ContractViolation(f"abort of inactive transmission {tx.tx_id}")
        self.engine.cancel(tx._end_ev)
        self._remove(tx, ABORTED)

    def _finish(self, tx: Transmission) -> None:
        self._remove(tx, COLLIDED if tx.dirty else CLEAN)

    def _remove(self, tx: Transmission, outcome: str) -> None:
        now = self.engine.now
        del self._active[tx.tx_id]
        self.collector.on_tx_end(now, tx.tx_id, outcome)
        if not self._active:
            for listener in self.listeners:
                listener.on_main_idle(now)
        tx.on_end(outcome)

    # -- tone (control) channel --------------------------------------------

    def tone_asserted_before(self, t: SimTime) -> bool:
        """True iff some tone was already up strictly before instant t.

        A tone released at t still counts as up at t, so an arrival sees
        the same channel whether the release or its assertion runs first.
        Arrivals that assert within the same microsecond each see an idle
        control channel; they all go on to transmit immediately and collide
        with each other, which is exactly the contention the scheme leaves
        unresolved.
        """
        return self._released_at == t or any(
            since < t for since in self._tones.values())

    def busy_tone_set(self, sta: str, on: bool) -> None:
        """Assert/release sta's tone.  The first assertion and the last
        release are the control channel's busy and idle edges.

        With a detection delay, an assertion in the microsecond of the last
        release cancels the pending idle edge instead of scheduling a busy
        one: the heard level has no zero-length gap.
        """
        now = self.engine.now
        if on:
            if sta in self._tones:
                raise ContractViolation(f"{sta} asserted its tone twice")
            self._tones[sta] = now
        elif self._tones.pop(sta, None) is None:
            raise ContractViolation(f"{sta} released a tone it does not hold")
        else:
            self._released_at = now
        if len(self._tones) != (1 if on else 0):
            return
        if self.detection_delay == 0:
            self._deliver_control(on)
        elif on and self._released_at == now:  # the last edge is that idle edge
            self.engine.cancel(self._last_edge)
        else:
            self._last_edge = self.engine.schedule(
                now + self.detection_delay, lambda: self._deliver_control(on))

    def _deliver_control(self, busy: bool) -> None:
        now = self.engine.now
        self.tone_heard = busy
        if busy:
            for sta_obj in self.tone_listeners:
                sta_obj.on_control_busy(now)
        else:
            for sta_obj in self.tone_listeners:
                sta_obj.on_control_idle(now)
