"""EDCA state-machine timelines, checked against hand-computed schedules.

Defaults used throughout: slot 9, SIFS 16, regular AIFS 43 (aifsn 3),
data 2000, ack 44; a failed exchange times out at data_end + 16 + 44 + 9.
"""

import random

import pytest

from btwifi.engine import ContractViolation, RngStream
from btwifi.mac import EdcaParams, PhyConstants, Station, aifs
from btwifi.traffic import ExpAfterSuccessSource, SaturatedSource

from conftest import PHY, Bench


def test_aifs_values():
    assert aifs(EdcaParams(2, 3, 15, 7, 200, 44, 0), PHY) == 34
    assert aifs(EdcaParams(3, 15, 1023, 7, 2000, 44, 0), PHY) == 43
    degenerate = PhyConstants(slot_time=1, sifs=16, ack_timeout_guard=9)
    assert aifs(EdcaParams(2, 3, 15, 7, 200, 44, 0), degenerate) == 18


def test_single_station_full_cycle_timeline():
    # draw 5: tx at 43 + 45 = 88, data [88, 2088), ack [2104, 2148).
    b = Bench()
    a = b.add_regular("r0", draws=[5])
    b.enqueue_at(0, a)
    b.run(5000)
    assert [e["t"] for e in b.events("tx_start")] == [88, 2104]
    assert [e["outcome"] for e in b.events("tx_end")] == ["clean", "clean"]
    (delivered,) = b.events("delivered")
    assert delivered["t"] == 2148 and delivered["delay"] == 2148


def test_drew_zero_transmits_right_after_aifs():
    b = Bench()
    a = b.add_regular("r0", draws=[0])
    b.enqueue_at(0, a)
    b.run(100)
    assert b.events("tx_start")[0]["t"] == 43


def test_freeze_preserves_counter_before_first_decrement():
    # Loser's counter is still 5 when counting resumes.
    b = Bench()
    a = b.add_regular("r0", draws=[5])
    winner = b.add_regular("r1", draws=[0])
    b.enqueue_at(0, a)
    b.enqueue_at(0, winner)
    b.run(6000)
    starts = {e["sta"]: e["t"] for e in b.events("tx_start") if e["sta"] != "ap"}
    # winner: [43, 2043), ack [2059, 2103); loser resumes at 2103 + 43 + 45.
    assert starts == {"r1": 43, "r0": 2191}


def test_freeze_keeps_only_whole_elapsed_slots():
    # Draw 5 vs draw 2: two slots elapse before the freeze, counter -> 3.
    b = Bench()
    a = b.add_regular("r0", draws=[5])
    winner = b.add_regular("r1", draws=[2])
    b.enqueue_at(0, a)
    b.enqueue_at(0, winner)
    b.run(6000)
    starts = {e["sta"]: e["t"] for e in b.events("tx_start") if e["sta"] != "ap"}
    # winner at 43+18=61, exchange ends 2121; loser at 2121+43+27.
    assert starts == {"r1": 61, "r0": 2191}

    # Draw 5 vs a foreign burst [65, 165) that lands 4 us into the third
    # slot: the partial slot is not spent, so the counter is 3, not 2.
    b = Bench()
    a = b.add_regular("r0", draws=[5])
    b.enqueue_at(0, a)
    b.engine.schedule(65, lambda: b.medium.begin_transmission(
        "x", "regular-data", 100, lambda o: None))
    b.run(3000)
    starts = {e["sta"]: e["t"] for e in b.events("tx_start") if e["sta"] != "ap"}
    # resumes at 165: 165+43+27 (a spent partial slot would give 226).
    assert starts == {"x": 65, "r0": 235}


def test_idle_gap_shorter_than_aifs_never_decrements():
    b = Bench()
    a = b.add_regular("r0", draws=[5])
    b.enqueue_at(0, a)
    # Foreign bursts [50, 150) and [170, 270): the 20 us gap < AIFS(43).
    b.engine.schedule(50, lambda: b.medium.begin_transmission(
        "x", "regular-data", 100, lambda o: None))
    b.engine.schedule(170, lambda: b.medium.begin_transmission(
        "x", "regular-data", 100, lambda o: None))
    b.run(3000)
    mine = [e for e in b.events("tx_start") if e["sta"] == "r0"]
    # counter still 5 after both resumes: 270 + 43 + 45
    assert mine[0]["t"] == 358


def test_simultaneous_zero_backoff_collides_then_retries():
    b = Bench()
    a = b.add_regular("r0", draws=[0, 1])
    c = b.add_regular("r1", draws=[0, 3])
    b.enqueue_at(0, a)
    b.enqueue_at(0, c)
    b.run(6000)
    ends = b.events("tx_end")
    assert [e["outcome"] for e in ends[:2]] == ["collided", "collided"]
    # both drew from [0,15] first, then from the doubled window [0,31]
    assert a.rng.uniform_calls == [(0, 15), (0, 31)]
    assert c.rng.uniform_calls == [(0, 15), (0, 31)]
    starts = [e for e in b.events("tx_start") if e["sta"] == "r0"]
    # timeout at 2112, resume 2112+43, one slot -> 2164
    assert starts[1]["t"] == 2164


def test_busy_edge_on_the_zero_boundary_still_transmits_and_collides():
    # Draw 5: r0's counter reaches 0 at 43 + 45 = 88.  A foreign frame that
    # starts at 88 and is dispatched first must not freeze r0: the slot
    # before the boundary was idle, so r0 transmits into the collision.
    b = Bench()
    a = b.add_regular("r0", draws=[5])
    b.engine.schedule(88, lambda: b.medium.begin_transmission(
        "x", "regular-data", 100, lambda o: None))
    b.enqueue_at(0, a)
    b.run(3000)
    starts = [(e["sta"], e["t"]) for e in b.events("tx_start")]
    assert starts[:2] == [("x", 88), ("r0", 88)]
    assert [e["outcome"] for e in b.events("tx_end")[:2]] == ["collided", "collided"]


def test_cw_ladder_and_drop_at_retry_limit():
    # Two stations drawing 0 forever collide 8 times and both drop.
    b = Bench()
    a = b.add_regular("r0", draws=[0] * 8)
    c = b.add_regular("r1", draws=[0] * 8)
    b.enqueue_at(0, a)
    b.enqueue_at(0, c)
    b.run(60_000)
    ladder = [hi for _, hi in a.rng.uniform_calls]
    assert ladder == [15, 31, 63, 127, 255, 511, 1023, 1023]
    assert len(b.events("dropped")) == 2
    assert b.events("delivered") == []
    assert b.collector.dropped["regular"] == 2
    assert b.collector.collided["regular"] == 16


def test_clean_exchange_schedules_no_ack_timeout():
    # The timeout is scheduled only once the exchange has failed.
    b = Bench()
    a = b.add_regular("r0", draws=[5])
    scheduled = []
    schedule = b.engine.schedule
    b.engine.schedule = lambda t, fn: scheduled.append(fn) or schedule(t, fn)
    b.enqueue_at(0, a)
    b.run(5000)
    assert [e["outcome"] for e in b.events("tx_end")] == ["clean", "clean"]
    assert a._fire_tx in scheduled
    assert a._on_ack_timeout not in scheduled


def test_collided_ack_is_treated_as_timeout():
    b = Bench()
    a = b.add_regular("r0", draws=[0, 0])
    b.enqueue_at(0, a)
    # Jam the ack window: data [43, 2043) is clean, ack [2059, 2103).
    b.engine.schedule(2060, lambda: b.medium.begin_transmission(
        "x", "regular-data", 10, lambda o: None))
    b.run(10_000)
    assert a.rng.uniform_calls == [(0, 15), (0, 31)]  # retry doubled the window
    (delivered,) = b.events("delivered")
    # timeout 2112, retry draw 0 -> data [2155, 4155), ack ends 4215
    assert delivered["t"] == 4215
    first = next(e["tx"] for e in b.events("tx_start") if e["sta"] == "r0")
    outcome = {e["tx"]: e["outcome"] for e in b.events("tx_end")}
    assert outcome[first] == "clean"  # the data frame was clean


def test_enqueue_during_busy_defers_until_idle_plus_aifs():
    b = Bench()
    a = b.add_regular("r0", draws=[0])
    b.engine.schedule(0, lambda: b.medium.begin_transmission(
        "x", "regular-data", 1000, lambda o: None))
    b.enqueue_at(500, a)
    b.run(3000)
    mine = [e for e in b.events("tx_start") if e["sta"] == "r0"]
    assert mine[0]["t"] == 1043


def test_enqueue_on_long_idle_channel_waits_fresh_aifs():
    b = Bench()
    a = b.add_regular("r0", draws=[0])
    b.enqueue_at(5000, a)
    b.run(8000)
    assert b.events("tx_start")[0]["t"] == 5043


def test_head_frame_overwrite_is_contract_violation():
    b = Bench()
    a = b.add_regular("r0", draws=[5])
    b.enqueue_at(0, a)
    b.enqueue_at(10, a)
    with pytest.raises(ContractViolation):
        b.run(100)


def test_saturated_refill_resets_retry_and_draws_fresh():
    b = Bench()
    a = b.add_regular("r0", draws=[5, 2])
    SaturatedSource(a).start()
    b.run(4300)
    delivered = b.events("delivered")
    # cycle 1: 43+45+2000+16+44 = 2148; cycle 2: 2148+43+18+2060 = 4269
    assert [e["t"] for e in delivered] == [2148, 4269]
    # refill draws come from the reset window (cw_min), retry_count zeroed
    assert a.rng.uniform_calls[:2] == [(0, 15), (0, 15)]
    assert all(hi == 15 for _, hi in a.rng.uniform_calls)
    assert a.retry_count == 0


def test_counter_invariants_across_run():
    b = Bench()
    stations = [b.add_regular(f"r{i}", draws=list(range(16)) * 4)
                for i in range(3)]
    for sta in stations:
        SaturatedSource(sta).start()
    b.run(100_000)
    for sta in stations:
        assert sta.counter >= 0
        # every draw respected the window invariant min((cw_min+1)*2^r-1, cw_max)
        for lo, hi in sta.rng.uniform_calls:
            assert lo == 0
            assert (hi + 1) & hi == 0  # 2^k - 1
            assert 15 <= hi <= 1023


def test_an_idle_edge_arms_every_waiting_station_with_one_event():
    # A foreign frame holds the channel over [0, 1000) while five stations
    # get a frame.  The idle edge at 1000 arms all five behind one event at
    # the earliest boundary, 1000 + 43 + 9 = 1052, where r1 and r3 start in
    # construction order and collide.
    b = Bench()
    stations = [b.add_regular(f"r{i}", draws=[d, 0])
                for i, d in enumerate([3, 1, 4, 1, 5])]
    b.engine.schedule(0, lambda: b.medium.begin_transmission(
        "x", "regular-data", 1000, lambda o: None))
    for sta in stations:
        b.enqueue_at(10, sta)
    b.run(999)
    assert all(sta.head is not None and sta.fire_at is None for sta in stations)
    scheduled = []
    schedule = b.engine.schedule
    b.engine.schedule = lambda t, fn: scheduled.append(t) or schedule(t, fn)
    b.run(1000)
    assert scheduled == [1052]
    assert [sta.fire_at for sta in stations] == [1070, 1052, 1079, 1052, 1088]
    b.run(1052)
    starts = [(e["sta"], e["t"]) for e in b.events("tx_start")]
    assert starts == [("x", 0), ("r1", 1052), ("r3", 1052)]
    # the other three froze one slot down: 1043 to 1052 elapsed
    assert [sta.counter for sta in stations] == [2, 1, 3, 1, 4]
    assert [sta.fire_at for sta in stations] == [None] * 5


def test_a_busy_edge_freezes_no_waiting_station_one_by_one(monkeypatch):
    # The idle edge at 1000 arms forty waiting stations; a foreign frame at
    # 1020, before any AIFS has elapsed, freezes them all.  The freeze is
    # one update of their class, so its work does not grow with the number
    # of stations: no per-station freeze runs.
    freezes = []
    freeze = Station._freeze
    monkeypatch.setattr(Station, "_freeze",
                        lambda sta, t: freezes.append(sta) or freeze(sta, t))
    b = Bench()
    stations = [b.add_regular(f"r{i}", draws=[i % 16]) for i in range(40)]
    b.engine.schedule(0, lambda: b.medium.begin_transmission(
        "x", "regular-data", 1000, lambda o: None))
    for sta in stations:
        b.enqueue_at(10, sta)
    b.engine.schedule(1020, lambda: b.medium.begin_transmission(
        "y", "regular-data", 100, lambda o: None))
    b.run(1000)
    assert all(sta.fire_at is not None for sta in stations)
    b.run(1020)
    assert freezes == []
    assert all(sta.fire_at is None for sta in stations)
    assert [sta.counter for sta in stations] == [i % 16 for i in range(40)]


def test_a_zero_length_frame_on_the_zero_boundary_leaves_the_due_station_armed():
    # r0's counter reaches 0 at 1043.  A foreign frame starts there first
    # and is aborted at once: the busy edge leaves r0 armed (the slot before
    # was idle), and the idle edge in the same microsecond re-arms only r1,
    # from 1043.  r0 starts at 1043 alone and clean, and r1, frozen at 2
    # by r0's start, follows the exchange: 3103 + 43 + 18.
    b = Bench()
    r0 = b.add_regular("r0", draws=[0])
    r1 = b.add_regular("r1", draws=[2])
    b.medium.begin_transmission("x", "regular-data", 1000, lambda o: None)
    for sta in (r0, r1):
        b.enqueue_at(10, sta)

    def zero_length():
        b.medium.abort_transmission(b.medium.begin_transmission(
            "y", "regular-data", 100, lambda o: None))

    b.engine.schedule(1043, zero_length)
    b.run(5000)
    starts = [(e["sta"], e["t"]) for e in b.events("tx_start") if e["sta"] != "ap"]
    assert starts == [("x", 0), ("y", 1043), ("r0", 1043), ("r1", 3164)]
    assert b.collector.collided["regular"] == 0


def test_a_held_due_station_starts_before_its_class_restarts_in_that_microsecond():
    # A foreign x holds [0, 100) while r0 (draw 1) and r1 (draw 2) get a
    # frame at 1.  The idle edge at 100 arms both for r0's boundary, 100 +
    # 43 + 9 = 152.  There a foreign y, scheduled first, begins and is
    # aborted at once: the busy edge holds r0 due, and the idle edge
    # restarts the class from 152 for r1, one slot down, at 152 + 43 + 9 =
    # 204.  The held event dispatches first whatever the order within 152:
    # r0 starts there, and its busy edge freezes r1 at 1 before 204.
    b = Bench()
    r0 = b.add_regular("r0", draws=[1])
    r1 = b.add_regular("r1", draws=[2])
    b.medium.begin_transmission("x", "regular-data", 100, lambda o: None)
    for sta in (r0, r1):
        b.enqueue_at(1, sta)
    y = []
    b.engine.schedule(152, lambda: y.append(b.medium.begin_transmission(
        "y", "regular-data", 100, lambda o: None)))
    b.engine.schedule(152, lambda: b.medium.abort_transmission(y[0]))
    b.run(300)
    starts = [(e["sta"], e["t"], e["tx"]) for e in b.events("tx_start")]
    assert starts == [("x", 0, 0), ("y", 152, 1), ("r0", 152, 2)]
    assert 204 not in {t for _, t, _ in starts}
    assert r1.counter == 1


def test_only_a_contending_head_frame_waits_or_is_armed():
    # Station._contend is the only way into contention, so at any instant an
    # armed station has a head frame.  A station that obeys the tone is
    # never armed while the tone is heard.
    b = Bench(duration=300_000)
    draw = random.Random(7)
    regular = [b.add_regular(f"r{i}", draws=[draw.randint(0, 15) for _ in range(400)])
               for i in range(3)]
    urllc = [b.add_urllc(f"u{j}", draws=[draw.randint(0, 3) for _ in range(400)])
             for j in range(2)]
    for sta in regular:
        SaturatedSource(sta).start()
    for sta in urllc:
        ExpAfterSuccessSource(sta, 1_500, RngStream(1, f"{sta.sta_id}:arrival")).start()
    assert b.medium.tone_listeners == regular
    seen, broken, heard = set(), [], []

    def probe():
        heard.append(b.medium.tone_heard)
        for sta in b.stations.values():
            armed = sta.fire_at is not None
            seen.add((sta.traffic_class, sta.head is not None, armed))
            if (armed and sta.head is None) \
                    or (armed and sta.obeys_tone and b.medium.tone_heard):
                broken.append((b.engine.now, sta.sta_id))

    for t in range(997, b.duration, 997):
        b.engine.schedule(t, probe)
    b.run()
    assert broken == []
    assert True in heard and False in heard
    # the run went through every path into contention and out of it
    assert b.events("preempted")
    assert "collided" in {e["outcome"] for e in b.events("tx_end")}
    assert {e["fast"] for e in b.events("tone_on")} == {True, False}
    assert {("regular", True, True), ("regular", True, False),
            ("urllc", False, False), ("urllc", True, True),
            ("urllc", True, False)} <= seen
