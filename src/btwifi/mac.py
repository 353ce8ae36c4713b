"""Per-station EDCA transmit state machine.

Timing model (integer microseconds):

* AIFS = SIFS + aifsn * slot.
* A station whose head frame is pending is armed for
  ``idle_from + AIFS + counter * slot`` as soon as the main channel is
  idle; the backoff counter decrements at each slot boundary after the
  AIFS, and the frame goes on air at the boundary where it reaches 0.
  The medium applies this rule to a whole traffic class at once
  (``medium.AccessClass``): at every idle edge, and at a heard tone clear
  for the stations that obey the tone, it arms all the class's waiting
  stations behind one event.  A station that starts waiting while its
  class may count (``Medium.may_count``) arms alone on its own event
  (``Station.on_main_idle``): a new frame, a retry, a re-contention.
* When the channel turns busy at t the arm is dropped and the counter
  becomes the slots still left between t and the armed instant, rounded
  up: a partially elapsed slot is not spent (freeze/resume).  The medium
  applies it to a class as one offset added to every counter, and to
  each station of the class armed alone (``Station.on_main_busy``), which
  then joins the class heap; ``AccessClass.stop`` does both.  A busy edge
  landing exactly on the boundary where the counter hits 0 does NOT
  cancel the transmission: the preceding slot was idle, so the station
  transmits and the overlap becomes a collision.  A heard tone on that
  boundary does stop it.  ``Station.counter`` and ``Station.fire_at``
  (None while not armed) read the result.
* After a clean data frame the responder acks SIFS later.  An ack
  timeout is scheduled only once the exchange has failed: at the end of a
  collided data frame, for ``end + SIFS + ack + guard``, and at the end of
  a collided ack, for ``ack end + guard``.  Both are one guard interval
  after the instant the ack would have ended.
* Every backoff draw is uniform on [0, cw] with
  cw = min((cw_min+1) * 2^retry - 1, cw_max), so failed attempts double
  the contention window; frames exceeding the retry limit are dropped.
* ``Station._after_service`` is the one way out of service, delivered or
  dropped: it empties the buffer and tells the source.

Every plain ``Station`` obeys the tone (``obeys_tone``);
``UrllcStation``, the only class that raises a tone, does not.  A
station enrolls with its medium when it is built (``Medium.enroll``): in
its ``AccessClass``, and in ``Medium.tone_listeners`` if it obeys the
tone.  A legacy low-latency station is a plain ``Station`` and so a tone
listener too, but the legacy scheme never raises a tone.  A station that
obeys the tone aborts an ongoing transmission and freezes its backoff
the moment the tone is detected.  Whether a station may count is the
medium's to say (``Medium.may_count``), from its heard level, set before
any listener is told, so the main-channel idle edge left by the first
abort arms no station that obeys the tone.
Only a station whose head frame contends is ever armed, so never a
low-latency station on the no-backoff path.
``Station._contend`` is the way into contention for every station class:
a new frame, a retry, a re-contention after a tone abort, and a
low-latency frame joining a tone.  A tone-triggered abort is not treated
as a collision: the retry count and contention window stay unchanged and
the frame simply re-contends once the suspension ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import ContractViolation, RngStream, SimTime
from .medium import CLEAN, COLLIDED, Medium, Transmission
from .metrics import ACK_FTYPE, DATA_FTYPE

@dataclass(frozen=True, slots=True)
class PhyConstants:
    slot_time: SimTime = 9
    sifs: SimTime = 16
    ack_timeout_guard: SimTime = 9


@dataclass(frozen=True, slots=True)
class EdcaParams:
    aifsn: int
    cw_min: int
    cw_max: int
    retry_limit: int
    data_airtime: SimTime
    ack_airtime: SimTime
    payload_bits: int


def aifs(params: EdcaParams, phy: PhyConstants) -> SimTime:
    return phy.sifs + params.aifsn * phy.slot_time


@dataclass(slots=True)
class Frame:
    frame_id: str
    arrival_time: SimTime


class Station:
    """One EDCA transmitter with a single-frame buffer."""

    obeys_tone = True

    def __init__(self, sta_id: str, traffic_class: str, params: EdcaParams,
                 phy: PhyConstants, medium: Medium, rng: RngStream) -> None:
        self.sta_id = sta_id
        self.traffic_class = traffic_class  # "regular" | "urllc"
        self.params = params
        self.phy = phy
        self.engine = medium.engine
        self.medium = medium
        self.rng = rng
        self.collector = medium.collector
        self.source = None  # set after construction

        self.aifs_us = aifs(params, phy)
        # the contention window at each retry count, and the data frame type
        self._cw = tuple(min((params.cw_min + 1) * (1 << retry) - 1, params.cw_max)
                         for retry in range(params.retry_limit + 1))
        self._data_ftype = DATA_FTYPE[traffic_class]
        self.head: Optional[Frame] = None
        self.retry_count = 0
        self._counter = 0  # the backoff counter while not in the class heap
        self._cur_tx: Optional[Transmission] = None
        medium.enroll(self)  # sets ac (the AccessClass) and index

    @property
    def counter(self) -> int:
        """Backoff slots left, as of the last freeze or arm."""
        key = self.ac.key_of(self)
        return self._counter if key is None else key - self.ac.offset

    @property
    def fire_at(self) -> Optional[SimTime]:
        """Where the armed counter hits 0; None while not armed."""
        ac = self.ac
        if self in ac.alone:
            return ac.alone[self][0]
        key = ac.key_of(self)
        return None if key is None or ac.since is None else ac.fire_at(key)

    # -- frame intake -------------------------------------------------------

    def enqueue(self, frame: Frame) -> None:
        if self.head is not None:
            raise ContractViolation(f"{self.sta_id}: head frame overwritten")
        self.head = frame
        self.retry_count = 0
        self.collector.on_arrival(self.engine.now, self.sta_id,
                                  self.traffic_class, frame)
        self._after_enqueue()

    def _after_enqueue(self) -> None:
        self._contend()

    # -- backoff / deferral --------------------------------------------------

    def _contend(self) -> None:
        """The one way into contention: draw on [0, _cw[retry_count]], then
        wait, armed if the medium lets the class count.  retry_count never
        exceeds the retry limit here: a frame past it is dropped instead."""
        self._counter = self.rng.uniform_int(0, self._cw[self.retry_count])
        if self.medium.may_count(self.ac):
            self.on_main_idle(self.engine.now)
        else:
            self.ac.push(self, self._counter)

    def on_main_busy(self, t: SimTime) -> None:
        """Freeze at t, a main busy edge or a heard tone: drop the arm in
        ac.alone and join the class heap, keeping the slots still left, a
        partial one included.  Only ``AccessClass.stop`` calls it, for the
        stations its boundary rule stops; the name stays because the
        benchmark's spans (bench/spans.py) wrap it."""
        at, ev = self.ac.alone.pop(self)
        self.engine.cancel(ev)
        left = (at - t + self.phy.slot_time - 1) // self.phy.slot_time
        if left < self._counter:
            self._counter = left
        self.ac.push(self, self._counter)

    def on_main_idle(self, t: SimTime) -> None:
        # Arm alone on the station's own event, once _contend has found that
        # the class may count; at an idle edge or a tone clear the medium arms
        # the class instead.  The name stays for bench/spans.py, which wraps it.
        at = t + self.aifs_us + self._counter * self.phy.slot_time
        self.ac.alone[self] = (at, self.engine.schedule(at, self._fire_tx))

    # -- tone channel ---------------------------------------------------------

    def on_control_busy(self, t: SimTime) -> None:
        # The medium has already frozen the station's class and its arm
        # (AccessClass.stop); what is left is the frame on air.
        if self._cur_tx is not None:
            self.medium.abort_transmission(self._cur_tx)

    def on_control_idle(self, t: SimTime) -> None:
        # Nothing to do: the medium has armed the station's class behind
        # one event (Medium._hear_clear).
        pass

    # -- the frame exchange ----------------------------------------------------

    def _fire_tx(self) -> None:
        """The one way onto the air: an expired backoff or the fast path."""
        self.ac.alone.pop(self, None)
        self._cur_tx = self.medium.begin_transmission(
            self.sta_id, self._data_ftype, self.params.data_airtime,
            self._on_data_end, self.head.frame_id)

    def _on_data_end(self, outcome: str) -> None:
        self._cur_tx = None
        if outcome == CLEAN:
            self.engine.schedule(self.engine.now + self.phy.sifs, self._start_ack)
        elif outcome == COLLIDED:  # no ack will come: time out where it would end
            self.engine.schedule(
                self.engine.now + self.phy.sifs + self.params.ack_airtime
                + self.phy.ack_timeout_guard, self._on_ack_timeout)
        else:  # ABORTED: the tone preempted us mid-frame
            # Re-contend from scratch after the suspension: fresh draw, but
            # the retry count and contention window are NOT touched - being
            # preempted is not evidence of a collision.
            self._contend()

    def _start_ack(self) -> None:
        # The responder turns the frame around SIFS after a clean reception.
        # It is not a contender, so it is modelled as the medium-level "ap"
        # transmitter rather than a full station.
        self.medium.begin_transmission("ap", ACK_FTYPE, self.params.ack_airtime,
                                       self._on_ack_end)

    def _on_ack_end(self, outcome: str) -> None:
        if outcome == CLEAN:
            self.collector.on_delivered(self.engine.now, self.sta_id,
                                        self.traffic_class, self.head,
                                        self.params.payload_bits)
            self._after_service("delivered")
        else:  # a collided ack is indistinguishable from no ack
            self.engine.schedule(self.engine.now + self.phy.ack_timeout_guard,
                                 self._on_ack_timeout)

    def _on_ack_timeout(self) -> None:
        self.retry_count += 1
        if self.retry_count > self.params.retry_limit:
            self.collector.on_dropped(self.engine.now, self.sta_id,
                                      self.traffic_class, self.head)
            self._after_service("dropped")
            return
        self._contend()

    def _after_service(self, outcome: str) -> None:
        self.head = None
        if self.source is not None:
            self.source.on_service_complete()

    def close(self) -> None:
        """Drop the source and the frame on air, which each hold this
        station back; the run is over."""
        self.source = None
        self._cur_tx = None
