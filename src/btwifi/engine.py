"""Deterministic discrete-event core: virtual clock, event queue, seeded RNG streams.

All simulation time is kept in integer microsecond ticks.  Every protocol
duration used by the MAC (slot, SIFS, AIFS, airtimes) is an exact integer
number of microseconds, so there is no floating-point time anywhere in the
event loop and two runs with the same seed produce byte-identical traces.

Events with equal fire time dispatch in insertion order.  Frames that
touch never collide whatever that order, a tone release and an assertion
in one microsecond give the same result in either order, and legacy runs
depend on no other tie.  With the busy tone the order still decides two
ties within a microsecond: a heard tone edge against a no-backoff launch,
and a heard tone edge against a regular backoff expiry.

Backoff expiries are armed in two ways.  The medium counts the backoff
of each traffic class behind one event, scheduled when the class starts
counting at a main-channel idle edge or a heard tone clear, and cancelled
when the class freezes before that instant; no event ever moves.  A
station that starts waiting on an idle channel schedules its own event,
which its class keeps (``AccessClass.alone``).
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Optional

# Base time unit: 1 microsecond.
SimTime = int


class ContractViolation(RuntimeError):
    """An internal precondition was broken; the run cannot continue."""


class Engine:
    """Single-run event loop.  Not shared between runs, never thread-safe.

    An event is its own [fire_at, seq, fn] heap entry; fn is None once the
    event has fired or been cancelled.  Only the engine reads an event;
    its owner only passes it to cancel() and keeps its own fire instant.
    """

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._heap: list[list] = []
        self._seq = 0

    def schedule(self, fire_at: SimTime, fn: Callable[[], None]) -> list:
        """Schedule fn at fire_at; returns the event, usable with cancel().

        Scheduling in the past is a fatal contract violation.
        """
        if fire_at < self.now:
            raise ContractViolation(
                f"schedule at t={fire_at} but clock is at t={self.now} "
                f"({getattr(fn, '__qualname__', fn)})")
        ev = [fire_at, self._seq, fn]
        heapq.heappush(self._heap, ev)
        self._seq += 1
        return ev

    def cancel(self, ev: Optional[list]) -> bool:
        """Suppress a pending event.  False if already fired or cancelled."""
        if ev is None or ev[2] is None:
            return False
        ev[2] = None
        return True

    def run_until(self, t_end: SimTime) -> int:
        """Dispatch every event with fire_at <= t_end; clock ends at t_end."""
        if t_end < self.now:
            raise ContractViolation(f"run_until({t_end}) is before now={self.now}")
        heap = self._heap
        n = 0
        while heap and heap[0][0] <= t_end:
            ev = heapq.heappop(heap)
            fn = ev[2]
            if fn is None:  # cancelled
                continue
            self.now = ev[0]
            ev[2] = None  # mark fired; also drops the closure reference
            fn()
            n += 1
        self.now = t_end
        return n

    def pending(self) -> int:
        return sum(1 for ev in self._heap if ev[2] is not None)


class RngStream:
    """Deterministic pseudo-random stream keyed by (seed, stream id).

    Streams for different stations/purposes are derived independently from
    the master seed, so adding a station does not perturb anyone else's
    draw sequence.  Seeding goes through the string form, which CPython
    hashes with SHA-512: stable across processes and platforms.
    """

    def __init__(self, seed: int, stream_id: str) -> None:
        self._rng = random.Random(f"{seed}/{stream_id}")

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer on [lo, hi], inclusive."""
        if lo > hi:
            raise ContractViolation(f"uniform_int: lo={lo} > hi={hi}")
        return self._rng.randint(lo, hi)

    def exponential(self, mean: SimTime) -> SimTime:
        """Exponential duration with the given mean, rounded to >= 1 tick."""
        if mean <= 0:
            raise ContractViolation(f"exponential: mean={mean} must be positive")
        d = round(self._rng.expovariate(1.0 / mean))
        return d if d >= 1 else 1
