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


@dataclass(slots=True, eq=False)
class Cohort:
    """Stations armed at one idle edge, behind one event at their earliest
    ``fire_at``; members stay in construction order."""
    members: list
    ev: object = None


class Medium:
    """Owns both channels; mutated only from its run's event loop.

    listeners is the ordered list of observers told about main-channel
    busy/idle edges: the collector, which measures busy time from them.
    No station is among them.  stations lists every station and
    tone_listeners the stations that obey the tone and are told about its
    edges.  Each station appends itself when it is built, so both lists
    follow construction order, and every loop over them keeps that order
    so runs are reproducible.

    The medium arms the stations that wait at an idle edge: each waiting
    station that is not armed and not suspended gets ``fire_at`` = edge +
    AIFS + counter * slot, and the lot form one ``Cohort`` behind one
    engine event at the earliest ``fire_at``.  It ranks against every
    other event of its microsecond as one event per member, scheduled one
    after another at the edge, would, and members due together start in
    construction order.  A busy edge at t freezes the members with
    ``fire_at`` > t; those due at t stay armed and transmit into the
    collision.  A heard tone drops the members that obey it, and the event
    moves to the next member's instant keeping its rank.  A station armed
    off the idle edge (a new frame, a retry, a re-contention, a tone
    clear) arms itself with its own event (``Station.on_main_idle``) and
    is told about busy edges (``Station.on_main_busy``).

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
        self.stations: list = []
        self.tone_listeners: list = []
        self._cohorts: list[Cohort] = []  # the cohorts whose event is pending
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
            self._main_busy(now)
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
            self._arm_cohort(now)
        tx.on_end(outcome)

    # -- channel access -----------------------------------------------------

    def arm(self, t: SimTime, stations) -> list:
        """The arming rule, for a channel idle since t: each waiting station
        that is not armed and not suspended gets its fire_at.  Returns the
        stations it armed, in the order given."""
        heard = self.tone_heard
        armed = []
        for sta in stations:
            if sta.waiting and sta.fire_at is None and not (heard and sta.obeys_tone):
                sta.fire_at = t + sta.aifs_us + sta.counter * sta.phy.slot_time
                armed.append(sta)
        return armed

    def _arm_cohort(self, e: SimTime) -> None:
        """Arm every station that waits at the idle edge e, with one event."""
        members = self.arm(e, self.stations)
        if members:
            cohort = Cohort(members)
            cohort.ev = self.engine.schedule(min(sta.fire_at for sta in members),
                                             lambda: self._fire_cohort(cohort))
            self._cohorts.append(cohort)

    def _fire_cohort(self, cohort: Cohort) -> None:
        self._cohorts.remove(cohort)
        now = self.engine.now
        for sta in cohort.members:
            if sta.fire_at == now:  # the first start froze every later member
                sta._fire_tx()

    def _main_busy(self, now: SimTime) -> None:
        for listener in self.listeners:
            listener.on_main_busy(now)
        for sta in self.stations:
            if sta._arm_ev is not None:
                sta.on_main_busy(now)
            elif sta.fire_at is not None and sta.fire_at > now:
                sta._freeze(now)  # a cohort member
        # A cohort lives on only with members due now: they transmit.
        cohorts, self._cohorts = self._cohorts, []
        for cohort in cohorts:
            if cohort.ev[0] == now:
                cohort.members = [sta for sta in cohort.members if sta.fire_at == now]
                self._cohorts.append(cohort)
            else:
                self.engine.cancel(cohort.ev)

    def _suspend_cohorts(self, now: SimTime) -> None:
        """Freeze every cohort member that obeys the tone heard at now."""
        cohorts, self._cohorts = self._cohorts, []
        for cohort in cohorts:
            members = []
            for sta in cohort.members:
                if sta.obeys_tone:
                    sta._freeze(now)
                else:
                    members.append(sta)
            if not members:
                self.engine.cancel(cohort.ev)
                continue
            first = min(sta.fire_at for sta in members)
            if first != cohort.ev[0]:
                cohort.ev = self.engine.move(cohort.ev, first)
            cohort.members = members
            self._cohorts.append(cohort)

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
            self._suspend_cohorts(now)
            for sta_obj in self.tone_listeners:
                sta_obj.on_control_busy(now)
        else:
            for sta_obj in self.tone_listeners:
                sta_obj.on_control_idle(now)
