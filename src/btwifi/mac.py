"""Per-station EDCA transmit state machine.

Timing model (integer microseconds):

* AIFS = SIFS + aifsn * slot.
* A station whose head frame is pending arms a transmission for
  ``idle_from + AIFS + counter * slot`` as soon as the main channel is
  idle; the backoff counter decrements at each slot boundary after the
  AIFS, and the frame goes on air at the boundary where it reaches 0.
* When the channel turns busy the pending transmission is cancelled and
  the counter keeps only the decrements for fully elapsed idle slots
  (freeze/resume).  A busy edge landing exactly on the boundary where the
  counter hits 0 does NOT cancel the transmission: the preceding slot was
  idle, so the station transmits and the overlap becomes a collision.
* After a clean data frame the responder acks SIFS later; the sender's
  ack timeout sits one guard interval after the expected ack end.
* Failed attempts double the contention window as
  cw = min((cw_min+1) * 2^retry - 1, cw_max) and redraw; frames exceeding
  the retry limit are dropped.

Stations that obey the tone channel (regular stations when the priority
scheme is enabled) additionally abort an ongoing transmission the moment
the tone is detected and suspend counting for the whole tone duration.
A tone-triggered abort is not treated as a collision: the retry count and
contention window stay unchanged and the frame simply re-contends once
the suspension ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import ContractViolation, Event, RngStream, SimTime
from .medium import ABORTED, CLEAN, COLLIDED, Medium, Transmission

IDLE = "idle"
WAIT = "wait"  # deferring or counting backoff
TX = "transmitting"
AWAIT_ACK = "await_ack"


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
    delivery_time: Optional[SimTime] = None


class Station:
    """One EDCA transmitter with a single-frame buffer."""

    def __init__(self, sta_id: str, traffic_class: str, params: EdcaParams,
                 phy: PhyConstants, medium: Medium, rng: RngStream,
                 reacts_to_tone: bool = False) -> None:
        self.sta_id = sta_id
        self.traffic_class = traffic_class  # "regular" | "urllc"
        self.params = params
        self.phy = phy
        self.engine = medium.engine
        self.medium = medium
        self.rng = rng
        self.collector = medium.collector
        self.tracer = medium.tracer
        self.reacts_to_tone = reacts_to_tone
        self.source = None  # set after construction

        self.aifs_us = aifs(params, phy)
        self.state = IDLE
        self.head: Optional[Frame] = None
        self.counter = 0
        self.retry_count = 0
        self.cw_current = params.cw_min
        self.suspended = False
        self._anchor: Optional[SimTime] = None  # time counting (re)started from
        self._arm_ev: Optional[Event] = None
        self._fast_ev: Optional[Event] = None  # used by the tone-scheme subclass
        self._timeout_ev: Optional[Event] = None
        self._cur_tx: Optional[Transmission] = None

    # -- frame intake -------------------------------------------------------

    def enqueue(self, frame: Frame) -> None:
        if self.head is not None:
            raise ContractViolation(f"{self.sta_id}: head frame overwritten")
        self.head = frame
        self.retry_count = 0
        self.cw_current = self.params.cw_min
        self.state = WAIT
        if self.collector is not None:
            self.collector.on_arrival(self.traffic_class)
        if self.tracer is not None:
            self.tracer.arrival(self.engine.now, self.sta_id, frame.frame_id,
                                self.traffic_class)
        self._after_enqueue(frame)

    def _after_enqueue(self, frame: Frame) -> None:
        self.counter = self.rng.uniform_int(0, self.cw_current)
        self._try_arm()

    # -- backoff / deferral --------------------------------------------------

    def _try_arm(self) -> None:
        """(Re)start counting if the frame may contend right now."""
        if (self.state != WAIT or self.suspended or self._arm_ev is not None
                or self._fast_ev is not None or self.medium.is_main_busy()):
            return
        now = self.engine.now
        self._anchor = now + self.aifs_us
        self._arm_ev = self.engine.schedule(
            self._anchor + self.counter * self.phy.slot_time, self._fire_tx)

    def _apply_decrements(self, t: SimTime) -> None:
        if self._anchor is not None:
            elapsed = t - self._anchor
            if elapsed > 0:
                n = elapsed // self.phy.slot_time
                self.counter -= n if n < self.counter else self.counter
            self._anchor = None

    def on_main_busy(self, t: SimTime) -> None:
        ev = self._arm_ev
        if ev is not None and ev.fire_at > t:
            # Freeze: a boundary landing exactly at t stays armed and
            # transmits into the collision.
            ev.cancelled = True
            self._arm_ev = None
            self._apply_decrements(t)

    def on_main_idle(self, t: SimTime) -> None:
        # Hot path (called on every busy->idle edge): inlined _try_arm minus
        # the medium-idle check, which the transition itself guarantees.
        if (self.state == WAIT and not self.suspended and self._arm_ev is None
                and self._fast_ev is None):
            self._anchor = t + self.aifs_us
            self._arm_ev = self.engine.schedule(
                self._anchor + self.counter * self.phy.slot_time, self._fire_tx)

    # -- tone channel ---------------------------------------------------------

    def on_control_busy(self, t: SimTime) -> None:
        if not self.reacts_to_tone:
            return
        self.suspended = True
        ev = self._arm_ev
        if ev is not None:
            # Unlike a main-channel busy edge, a tone heard on the boundary
            # itself stops the station before it starts transmitting.
            self.engine.cancel(ev)
            self._arm_ev = None
            self._apply_decrements(t)
        if self.state == TX:
            self.medium.abort_transmission(self._cur_tx, t)

    def on_control_idle(self, t: SimTime) -> None:
        if not self.reacts_to_tone:
            return
        self.suspended = False
        self._try_arm()

    # -- the frame exchange ----------------------------------------------------

    def _fire_tx(self) -> None:
        self._arm_ev = None
        self._anchor = None
        self.counter = 0
        self._begin_data_tx()

    def _begin_data_tx(self) -> None:
        now = self.engine.now
        p = self.params
        self.state = TX
        self._cur_tx = self.medium.begin_transmission(
            self.sta_id, f"{self.traffic_class}-data", p.data_airtime,
            self._on_data_end, frame_id=self.head.frame_id)
        timeout_at = now + p.data_airtime + self.phy.sifs + p.ack_airtime \
            + self.phy.ack_timeout_guard
        self._timeout_ev = self.engine.schedule(timeout_at, self._on_ack_timeout)

    def _on_data_end(self, outcome: str) -> None:
        self._cur_tx = None
        if outcome == CLEAN:
            self.state = AWAIT_ACK
            self.engine.schedule(self.engine.now + self.phy.sifs, self._start_ack)
        elif outcome == COLLIDED:
            self.state = AWAIT_ACK  # no ack will come; the timeout handles it
            if self.collector is not None:
                self.collector.on_collided(self.traffic_class)
        else:  # ABORTED: the tone preempted us mid-frame
            self.engine.cancel(self._timeout_ev)
            self._timeout_ev = None
            if self.collector is not None:
                self.collector.on_preempted()
            if self.tracer is not None:
                self.tracer.preempted(self.engine.now, self.sta_id, self.head.frame_id)
            # Re-contend from scratch after the suspension: fresh draw, but
            # the retry count and contention window are NOT touched - being
            # preempted is not evidence of a collision.
            self.counter = self.rng.uniform_int(0, self.cw_current)
            self.state = WAIT
            self._try_arm()

    def _start_ack(self) -> None:
        # The responder turns the frame around SIFS after a clean reception.
        # It is not a contender, so it is modelled as the medium-level "ap"
        # transmitter rather than a full station.
        self.medium.begin_transmission("ap", "ack", self.params.ack_airtime,
                                       self._on_ack_end)

    def _on_ack_end(self, outcome: str) -> None:
        if outcome == CLEAN:
            self.engine.cancel(self._timeout_ev)
            self._timeout_ev = None
            self._complete_delivered()
        # A collided ack is indistinguishable from no ack: let the timeout fire.

    def _on_ack_timeout(self) -> None:
        self._timeout_ev = None
        self.retry_count += 1
        if self.retry_count > self.params.retry_limit:
            frame = self.head
            self.head = None
            self.state = IDLE
            if self.collector is not None:
                self.collector.on_dropped(self.traffic_class)
            if self.tracer is not None:
                self.tracer.dropped(self.engine.now, self.sta_id, frame.frame_id)
            self._after_service(frame, "dropped")
            return
        p = self.params
        self.cw_current = min((p.cw_min + 1) * (1 << self.retry_count) - 1, p.cw_max)
        self.counter = self.rng.uniform_int(0, self.cw_current)
        self.state = WAIT
        self._try_arm()

    def _complete_delivered(self) -> None:
        now = self.engine.now
        frame = self.head
        frame.delivery_time = now
        self.head = None
        self.state = IDLE
        self.retry_count = 0
        self.cw_current = self.params.cw_min
        if self.collector is not None:
            self.collector.on_delivered(self.traffic_class, self.sta_id, frame,
                                        self.params.payload_bits)
        if self.tracer is not None:
            self.tracer.delivered(now, self.sta_id, frame.frame_id,
                                  now - frame.arrival_time)
        self._after_service(frame, "delivered")

    def _after_service(self, frame: Frame, outcome: str) -> None:
        if self.source is not None:
            self.source.on_service_complete(outcome, self.engine.now)
