"""Per-run measurement: delay samples, throughput, counters, busy time.

Warm-up handling follows two different filters on purpose:

* delay samples count a frame iff it ARRIVED at or after the warm-up end
  (frames straddling the boundary would bias the sample);
* throughput counts payload bits of frames DELIVERED inside the
  measurement window, i.e. bits actually put through during it.

The terminal counters (delivered/dropped/collided/preempted and arrivals)
cover the whole run including warm-up so that the bookkeeping identity
arrivals == delivered + dropped + in-flight-at-end can be asserted exactly.
Stations report arrivals, deliveries and drops; the medium's transmission
starts and ends give collisions, preemptions and busy time.

summarize is the only code that turns a run's counts into a RunSummary.
tracecheck.replay_csv_row takes its counts from the trace alone and shares
only this arithmetic with the collector.

It also owns what the simulator and tracecheck share, and imports only
engine: the record vocabulary (CLASSES, the frame types and the outcomes)
and the row format (CSV_COLUMNS, CSV_HEADER, summary_row, format_number).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Optional

from .engine import ContractViolation, SimTime

CLASSES = ("regular", "urllc")  # the traffic classes, each counted apart
DATA_FTYPE = {cls: f"{cls}-data" for cls in CLASSES}  # a class's data frame type
DATA_CLASS = {ftype: cls for cls, ftype in DATA_FTYPE.items()}  # its inverse
ACK_FTYPE = "ack"  # the responder's ack, for a data frame of either class
CLEAN, COLLIDED, ABORTED = "clean", "collided", "aborted"  # a transmission's outcomes


def nearest_rank(sorted_samples: list, pct: int):
    """Nearest-rank percentile of an ascending, non-empty sample list."""
    n = len(sorted_samples)
    idx = (pct * n + 99) // 100 - 1  # ceil(pct*n/100) - 1
    return sorted_samples[idx if idx >= 0 else 0]


@dataclass(slots=True)
class RunSummary:
    """The summary CSV's columns (CSV_COLUMNS) in order, each named by its
    field or its metadata's "column".  Per-frame facts are in the trace."""
    scheme: str
    m_urllc: int = field(metadata={"column": "M"})
    n_regular: int = field(metadata={"column": "N"})
    seed: int
    urllc_delay_mean: Optional[float] = field(metadata={"column": "urllc_delay_mean_us"})
    urllc_delay_p99: Optional[int] = field(metadata={"column": "urllc_delay_p99_us"})
    urllc_delivered: int
    urllc_dropped: int
    urllc_collided: int
    regular_throughput_bps: float
    regular_delivered: int
    regular_preempted: int
    channel_busy_fraction: float
    sim_duration: SimTime = field(metadata={"column": "sim_duration_us"})
    warmup: SimTime = field(metadata={"column": "warmup_us"})


# (CSV column, RunSummary attribute), in column order
CSV_COLUMNS = tuple((f.metadata.get("column", f.name), f.name) for f in fields(RunSummary))
CSV_HEADER = ",".join(column for column, _ in CSV_COLUMNS)
_row_fields = attrgetter(*(attr for _, attr in CSV_COLUMNS))


def format_number(value) -> str:
    """A value as the summary CSV and the curve files write it."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def summary_row(s: RunSummary) -> str:
    return ",".join(map(format_number, _row_fields(s)))


class MetricsCollector:
    """The run's only observer, told each fact once through an on_* hook.
    Stations call the frame hooks with the time, station id, class and Frame;
    the medium calls on_tx_start and on_tx_end with the Transmission, which
    carries its end, and a busy or idle edge flag; UrllcStation calls the tone
    hooks, which measure nothing here.  trace.Tracer calls each one first."""

    def __init__(self, warmup: SimTime, duration: SimTime) -> None:
        if not 0 <= warmup < duration:
            raise ValueError("need 0 <= warmup < duration")
        self.warmup = warmup
        self.duration = duration
        self.arrivals = dict.fromkeys(CLASSES, 0)
        self.delivered = dict.fromkeys(CLASSES, 0)
        self.dropped = dict.fromkeys(CLASSES, 0)
        self.collided = dict.fromkeys(CLASSES, 0)
        self.preempted = 0
        self.urllc_delays: list[int] = []
        self.regular_bits = 0
        self._busy_since: Optional[SimTime] = None
        self._busy_in_window: SimTime = 0

    # -- frame lifecycle ----------------------------------------------------

    def on_arrival(self, t: SimTime, sta: str, cls: str, frame) -> None:
        self.arrivals[cls] += 1

    def on_delivered(self, t: SimTime, sta: str, cls: str, frame,
                     payload_bits: int) -> None:
        self.delivered[cls] += 1
        if cls == "urllc":
            if frame.arrival_time >= self.warmup:
                self.urllc_delays.append(t - frame.arrival_time)
        elif t >= self.warmup:
            self.regular_bits += payload_bits

    def on_dropped(self, t: SimTime, sta: str, cls: str, frame) -> None:
        self.dropped[cls] += 1

    def _unmeasured(self, *event) -> None:
        """Tone events feed no metric; see trace.Tracer."""

    on_tone_on = on_tone_off = _unmeasured

    # -- transmissions and channel occupancy --------------------------------

    def on_tx_start(self, t: SimTime, tx, busy_edge: bool) -> None:
        if busy_edge:
            self._busy_since = t

    def on_tx_end(self, t: SimTime, tx, outcome: str, idle_edge: bool) -> None:
        if outcome == ABORTED:
            self.preempted += 1
        elif outcome == COLLIDED and tx.ftype in DATA_CLASS:  # not an ack
            self.collided[DATA_CLASS[tx.ftype]] += 1
        if idle_edge:
            self._close_busy(t)

    def _close_busy(self, t: SimTime) -> None:
        lo = self._busy_since if self._busy_since > self.warmup else self.warmup
        hi = t if t < self.duration else self.duration
        if hi > lo:
            self._busy_in_window += hi - lo
        self._busy_since = None

    # -- summary -------------------------------------------------------------

    def finalize(self, scheme: str, m_urllc: int, n_regular: int, seed: int,
                 in_flight: dict[str, int]) -> RunSummary:
        if self._busy_since is not None:
            self._close_busy(self.duration)
        for cls in CLASSES:
            total = self.delivered[cls] + self.dropped[cls] + in_flight.get(cls, 0)
            if total != self.arrivals[cls]:
                raise ContractViolation(
                    f"{cls} frame accounting broken: {total} != {self.arrivals[cls]}")
        return summarize(scheme, m_urllc, n_regular, seed, self.duration,
                         self.warmup, self.urllc_delays, self.delivered,
                         self.dropped, self.collided, self.preempted,
                         self.regular_bits, self._busy_in_window)


def summarize(scheme: str, m: int, n: int, seed: int, duration: SimTime,
              warmup: SimTime, delays: list[int], delivered: dict[str, int],
              dropped: dict[str, int], collided: dict[str, int], preempted: int,
              regular_bits: int, busy: SimTime) -> RunSummary:
    """The one RunSummary builder: per-class counts keyed by CLASSES, URLLC
    delays in any order, regular bits and busy time inside [warmup, duration)."""
    window = duration - warmup
    samples = sorted(delays)
    if samples:
        mean, p99 = sum(samples) / len(samples), nearest_rank(samples, 99)
    else:
        mean = p99 = None
    return RunSummary(
        scheme=scheme, m_urllc=m, n_regular=n, seed=seed,
        sim_duration=duration, warmup=warmup,
        urllc_delay_mean=mean, urllc_delay_p99=p99,
        urllc_delivered=delivered["urllc"], urllc_dropped=dropped["urllc"],
        urllc_collided=collided["urllc"],
        regular_throughput_bps=regular_bits * 1_000_000 / window,
        regular_delivered=delivered["regular"], regular_preempted=preempted,
        channel_busy_fraction=busy / window)
