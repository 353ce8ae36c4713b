"""Busy-tone priority extension for low-latency stations.

A station with a pending low-latency frame asserts a continuous tone on
the control channel for the whole service of that frame (first attempt,
retries, until the ack or the drop).  Regular stations hearing the tone
vacate the main channel and suspend their backoff, so low-latency frames
only ever contend with each other.

An arrival raises its tone first, then launches or contends.  If no tone
was up before that instant (one released at that instant still counts),
the station is the only one with low-latency traffic and skips the
backoff: its data goes on air one AIFS after the tone onset, ack SIFS
after that, so a preempted regular transmitter has the AIFS to vacate; a
heard tone edge landing on the launch instant was scheduled first and so
removes the preempted frame first.  Otherwise the station joins the tone
and enters ``Station._contend``, counting against main-channel idleness -
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

    Never suspended by tones (``obeys_tone = False``, so it is not a tone
    listener and arms whatever the heard level); collisions inside the
    low-latency class are handled by the inherited EDCA retry.
    """

    obeys_tone = False

    def _after_enqueue(self) -> None:
        now = self.engine.now
        fast = not self.medium.tone_asserted_before(now)
        self.collector.on_tone_on(now, self.sta_id, fast)
        # before the launch, so a delayed abort this schedules dispatches first
        self.medium.busy_tone_set(self.sta_id, True)
        if fast:
            # Sole tone holder: data goes on air AIFS after the tone onset,
            # no backoff draw at all, independent of main-channel history.
            self.engine.schedule(now + self.aifs_us, self._fire_tx)
        else:
            self._contend()

    def _after_service(self, outcome: str) -> None:
        self.collector.on_tone_off(self.engine.now, self.sta_id, outcome)
        self.medium.busy_tone_set(self.sta_id, False)
        super()._after_service(outcome)
