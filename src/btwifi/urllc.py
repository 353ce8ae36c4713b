"""Busy-tone priority extension for low-latency stations.

A station with a pending low-latency frame asserts a continuous tone on
the control channel for the whole service of that frame (first attempt,
retries, until the ack or the drop).  Regular stations hearing the tone
vacate the main channel and suspend their backoff, so low-latency frames
only ever contend with each other.

If the control channel is idle at the instant the tone goes up, the
asserting station is the only one with low-latency traffic and skips the
backoff entirely: its data goes on air one AIFS after the tone onset, ack
SIFS after that.  The AIFS gap gives a preempted regular transmitter time
to vacate.  If the control channel is already busy, the station joins the
tone and runs the normal EDCA procedure against main-channel idleness -
the tone never freezes another tone holder's backoff, otherwise all
holders would deadlock.

Arrivals within the same microsecond each see an idle control channel and
each take the no-backoff path; the resulting collision between them is
resolved by ordinary EDCA retries while both tones stay up.
"""

from __future__ import annotations

from .mac import Station


class UrllcStation(Station):
    """Station running the tone scheme for its own traffic.

    Never suspended by tones (the run does not make it a tone listener);
    collisions inside the low-latency class are handled by the inherited
    EDCA retry.
    """

    def _after_enqueue(self) -> None:
        now = self.engine.now
        fast = not self.medium.tone_asserted_before(now)
        if fast:
            # Sole tone holder: data goes on air AIFS after the tone onset,
            # no backoff draw at all, independent of main-channel history.
            self.engine.schedule(now + self.aifs_us, self._begin_data_tx)
        else:  # Station._contend, with the arm held back past the tone cascade
            self._draw_backoff()
            self.waiting = True
        self.collector.on_tone_on(now, self.sta_id, fast)
        # Asserting may preempt a regular transmitter and cascade busy/idle
        # notifications; they arm only a waiting station, never the fast path.
        self.medium.busy_tone_set(self.sta_id, True)
        self._try_arm()

    def _after_service(self, outcome: str) -> None:
        self.collector.on_tone_off(self.engine.now, self.sta_id, outcome)
        self.medium.busy_tone_set(self.sta_id, False)
        super()._after_service(outcome)
