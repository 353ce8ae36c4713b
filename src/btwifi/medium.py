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

import heapq
from dataclasses import dataclass
from typing import Callable

from .engine import ContractViolation, Engine, SimTime

CLEAN = "clean"
COLLIDED = "collided"
ABORTED = "aborted"


@dataclass(slots=True)
class Transmission:
    """One frame on the main channel, and its own end event: the medium
    schedules the frame itself at end, so a frame builds no closure, and
    calling it takes it off the channel, collided if it is dirty."""

    tx_id: int
    sta: str
    ftype: str
    frame_id: object  # the data frame's id; None for an ack
    end: SimTime  # the scheduled end; an abort leaves it as it is
    on_end: Callable[[str], None]
    medium: Medium
    dirty: bool = False  # overlapped some other transmission at any point
    _end_ev: object = None  # the event at end, only passed to Engine.cancel

    def __call__(self) -> None:
        self.medium._remove(self, COLLIDED if self.dirty else CLEAN)


class AccessClass:
    """The backoff state of the stations that share one counting rule
    (AIFS, slot, whether the tone suspends them): a run has two, the
    regular and the URLLC stations.

    Counters are kept lazily, as ns-3's ChannelAccessManager does.  heap
    holds the waiting stations that are not armed, keyed by (counter +
    offset, construction index); one station's counter is its key minus
    offset, so a freeze adds the slots that elapsed to offset once for the
    whole class.  since is the instant the class started counting (the
    main idle edge, or a heard tone clear for a class that obeys the
    tone), None while it is frozen.  Stations join heap only then, so
    while the class counts each is armed for fire_at(its key), and ev is
    the one event at the earliest, at.

    alone maps each station armed outside heap to (at, ev), its fire
    instant and its event.  One arms alone on its own event
    (``Station.on_main_idle``); those a busy edge finds due at its instant
    are held on the class's event, and due lists them for _fire.  Events
    are only passed to Engine.cancel."""

    __slots__ = ("engine", "aifs", "slot", "obeys_tone", "size", "heap",
                 "offset", "since", "ev", "at", "alone", "due")

    def __init__(self, engine: Engine, aifs: SimTime, slot: SimTime,
                 obeys_tone: bool) -> None:
        self.engine = engine
        self.aifs = aifs
        self.slot = slot
        self.obeys_tone = obeys_tone
        self.size = 0  # stations enrolled so far: the next construction index
        self.heap: list = []
        self.offset = 0
        self.since: SimTime | None = None
        self.ev: list | None = None
        self.at: SimTime = -1
        self.alone: dict = {}
        self.due: list = []

    def push(self, sta, counter: int) -> None:
        """sta waits, not armed, with counter slots left; the class is frozen."""
        heapq.heappush(self.heap, (counter + self.offset, sta.index, sta))

    def key_of(self, sta) -> int | None:
        """sta's heap key; None if it is not in heap."""
        return next((key for key, _, other in self.heap if other is sta), None)

    def fire_at(self, key: int) -> SimTime:
        """When the station with heap key key hits 0, while the class counts."""
        return self.since + self.aifs + (key - self.offset) * self.slot

    def start(self, t: SimTime) -> None:
        """Count from t, behind one event at the earliest fire instant."""
        self.since = t
        if self.heap:
            self.at = self.fire_at(self.heap[0][0])
            self.ev = self.engine.schedule(self.at, self._fire)

    def stop(self, t: SimTime, tone: bool = False) -> None:
        """Freeze at t, a busy edge or (tone) a heard tone.

        Each counter keeps the slots still left, a partial one included:
        the whole slots elapsed since since + AIFS come off every member
        of heap at once, and a station armed alone keeps the slots left
        before its own instant (``Station.on_main_busy``).  This is the one
        place of the boundary rule: at a busy edge a station due at t stays
        armed, because the slot before t was idle, and transmits into the
        collision; a heard tone stops it too, with counter 0.
        """
        alone = self.alone
        if self.since is not None:
            ev = self.ev
            if ev is not None:
                if not tone and self.at == t:
                    self.due = self._pop_due()
                    for sta in self.due:
                        alone[sta] = (t, ev)
                else:
                    self.engine.cancel(ev)
                self.ev = None
            k = (t - self.since - self.aifs) // self.slot
            if k > 0:
                self.offset += k
            self.since = None
        if alone:
            for sta in [sta for sta, (at, _) in alone.items() if tone or at > t]:
                sta.on_main_busy(t)
            if tone:
                self.due = []

    def close(self) -> None:
        """Drop every station the class holds, waiting, armed or due."""
        self.heap.clear()
        self.alone.clear()
        self.due = []

    def _pop_due(self) -> list:
        """Take the stations with the least counter off heap, in construction
        order; each keeps that counter, as an armed station does."""
        heap = self.heap
        key = heap[0][0]
        counter = key - self.offset
        due = []
        while heap and heap[0][0] == key:
            sta = heapq.heappop(heap)[2]
            sta._counter = counter
            due.append(sta)
        return due

    def _fire(self) -> None:
        """Callback of the class's events: the held one fires the due
        stations, ev the least keys of heap.  A held event sits at its busy
        edge's instant t and a class restarting at t fires no earlier than
        t + AIFS >= t + 3, so it dispatches first whatever the order within
        one microsecond."""
        if self.due:
            due, self.due = self.due, []
        else:
            self.ev = None
            due = self._pop_due()
        for sta in due:  # the first start freezes the class
            sta._fire_tx()


class Medium:
    """Owns both channels; mutated only from its run's event loop.

    The collector is the only observer of the main channel and hears each
    transmission fact once: ``on_tx_start`` flags a busy edge, and
    ``on_tx_end`` an idle edge and carries the outcome.  tone_listeners
    lists the stations that obey the tone and are told about its heard
    edges, in construction order, so runs are reproducible.
    classes lists the ``AccessClass`` of every counting rule, in the order
    of their first station.

    A frame on air is a ``Transmission`` in _active and is its own end
    event; at its end, or at an abort, it leaves through ``_remove``.

    The medium counts backoff per class, not per station, and only the
    medium says whether a class may count (``may_count``).  A station
    waiting while its class may not sits in the class's heap.  At a main
    idle edge and at a heard tone clear every frozen class that may count
    starts (``AccessClass.start``): each schedules one event at its
    earliest station's instant, so an edge costs O(classes), not
    O(stations).  The class events of one edge are scheduled one after
    another in class order, so each ranks against the other events of its
    microsecond as the block of one event per station did, and stations
    due together start in construction order (a run builds every regular
    station before the URLLC ones).  A station that starts waiting while
    its class may count (a new frame, a retry, a re-contention) arms
    alone with its own event (``Station.on_main_idle``).  A busy edge
    at t, or a heard tone, freezes each class and the stations it holds
    alone (``AccessClass.stop``).  The end of a clean data frame starts no
    class: its ack begins SIFS later, before any AIFS (at least SIFS + 2
    slots) has passed, so a class event would only be cancelled.

    tone_heard is the control level the listeners last heard: it changes
    at the heard instant, detection_delay after the first assertion or the
    last release, before any listener is told.  A release followed by an
    assertion in the same microsecond does not change it.

    Each station holds its medium, so the frames on air, the tone listeners
    and the classes' stations tie the run in reference cycles; ``close``
    drops them once the run is over.
    """

    def __init__(self, engine: Engine, detection_delay: SimTime, collector) -> None:
        self.engine = engine
        self.detection_delay = detection_delay
        self.collector = collector
        self.tone_listeners: list = []
        self.classes: list[AccessClass] = []
        self.tone_heard = False
        self._active: dict[int, Transmission] = {}
        self._next_tx_id = 0
        self._tones: dict[str, SimTime] = {}  # sta -> assertion time
        self._released_at: SimTime = -1  # instant of the latest release
        self._last_edge: object = None  # the heard edge scheduled last

    def close(self) -> None:
        """Drop the frames on air, the tone listeners and every station a
        class holds; the run is over."""
        self._active.clear()
        self.tone_listeners.clear()
        for ac in self.classes:
            ac.close()

    # -- main data channel ------------------------------------------------

    def begin_transmission(self, sta: str, ftype: str, duration: SimTime,
                           on_end: Callable[[str], None], frame_id=None) -> Transmission:
        now = self.engine.now
        active = self._active
        was_idle = not active
        dirty = False
        if not was_idle:
            for other in active.values():
                if other.end == now:  # touches this frame; ends by its own event
                    continue
                if other.sta == sta:
                    raise ContractViolation(f"{sta} began a second transmission at t={now}")
                other.dirty = dirty = True
        tx = Transmission(self._next_tx_id, sta, ftype, frame_id, now + duration,
                          on_end, self, dirty)
        self._next_tx_id += 1
        active[tx.tx_id] = tx
        tx._end_ev = self.engine.schedule(tx.end, tx)
        self.collector.on_tx_start(now, tx, was_idle)
        if was_idle:
            for ac in self.classes:
                if ac.since is not None or ac.alone:  # else nothing to freeze
                    ac.stop(now)
        return tx

    def abort_transmission(self, tx: Transmission) -> None:
        if tx.tx_id not in self._active:
            raise ContractViolation(f"abort of inactive transmission {tx.tx_id}")
        self.engine.cancel(tx._end_ev)
        self._remove(tx, ABORTED)

    def _remove(self, tx: Transmission, outcome: str) -> None:
        now = self.engine.now
        del self._active[tx.tx_id]
        idle = not self._active
        self.collector.on_tx_end(now, tx, outcome, idle)
        if idle and (outcome != CLEAN or tx.frame_id is None):
            self._start_frozen(now)
        tx.on_end(outcome)

    # -- channel access -----------------------------------------------------

    def may_count(self, ac: AccessClass) -> bool:
        """True iff ac's stations may count down now: the main channel is
        idle, and no tone is heard if ac obeys it."""
        return not self._active and not (ac.obeys_tone and self.tone_heard)

    def _start_frozen(self, t: SimTime) -> None:
        """Start every frozen class that may count: an idle edge, a tone clear."""
        for ac in self.classes:
            if ac.since is None and self.may_count(ac):
                ac.start(t)

    def enroll(self, sta) -> None:
        """Register a new station: its class, its construction index within
        it, and its place among the tone listeners if it obeys the tone."""
        key = (sta.aifs_us, sta.phy.slot_time, sta.obeys_tone)
        for ac in self.classes:
            if (ac.aifs, ac.slot, ac.obeys_tone) == key:
                break
        else:
            ac = AccessClass(self.engine, *key)
            self.classes.append(ac)
        sta.ac, sta.index = ac, ac.size
        ac.size += 1
        if sta.obeys_tone:
            self.tone_listeners.append(sta)

    # -- tone (control) channel --------------------------------------------

    def tone_asserted_before(self, t: SimTime) -> bool:
        """True iff some tone was already up strictly before instant t.

        A tone released at t still counts as up at t, so an arrival sees
        the same channel whether the release or its assertion runs first.
        Arrivals that assert within the same microsecond each see an idle
        control channel; they all go on to transmit immediately and collide
        with each other, which is exactly the contention the scheme leaves
        unresolved.

        _tones keeps its entries in assertion order: each is inserted at
        the clock's now, which never decreases, and a release only removes
        one.  So its first value is the earliest, and the only one to read.
        """
        if self._released_at == t:
            return True
        for since in self._tones.values():
            return since < t
        return False

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
        heard = self._hear_busy if on else self._hear_clear
        if self.detection_delay == 0:
            heard()
        elif on and self._released_at == now:  # the last edge is that idle edge
            self.engine.cancel(self._last_edge)
        else:
            self._last_edge = self.engine.schedule(now + self.detection_delay, heard)

    def _hear_busy(self) -> None:
        """The heard busy edge: freeze every class that obeys the tone, then
        tell the listeners."""
        now = self.engine.now
        self.tone_heard = True
        for ac in self.classes:
            if ac.obeys_tone:
                ac.stop(now, tone=True)
        for sta_obj in self.tone_listeners:
            sta_obj.on_control_busy(now)

    def _hear_clear(self) -> None:
        """The heard idle edge: start every frozen class that may count, then
        tell the listeners."""
        now = self.engine.now
        self.tone_heard = False
        self._start_frozen(now)
        for sta_obj in self.tone_listeners:
            sta_obj.on_control_idle(now)
