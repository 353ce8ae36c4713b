"""Busy-tone scheme timelines: fast path, preemption, suspension, retries.

URLLC AIFS is 34 (aifsn 2), data 200, ack 44, so an uncontended service
takes exactly 34 + 200 + 16 + 44 = 294 us from arrival to ack end.
"""

import pytest

from btwifi.mac import Station
from btwifi.medium import AccessClass
from conftest import Bench


def tone_union(bench):
    """Contiguous busy spans of the control channel from the trace."""
    level, spans, start = 0, [], None
    for e in bench.events():
        if e["kind"] == "tone_on":
            if level == 0:
                start = e["t"]
            level += 1
        elif e["kind"] == "tone_off":
            level -= 1
            if level == 0:
                spans.append((start, e["t"]))
    return spans


def test_preemption_of_ongoing_regular_frame():
    # Regular frame [43, 2043) is cut at the tone onset (t=500); the
    # priority data rides [534, 734), ack [750, 794): delay 294.
    b = Bench()
    reg = b.add_regular("r0", draws=[0, 3])
    u = b.add_urllc("u0")
    b.enqueue_at(0, reg)
    b.enqueue_at(500, u)
    b.run(6000)

    aborted = [e for e in b.events("tx_end") if e["outcome"] == "aborted"]
    assert len(aborted) == 1 and aborted[0]["t"] == 500
    (pre,) = b.events("preempted")
    assert pre["sta"] == "r0" and pre["t"] == 500
    (delivered_u,) = [e for e in b.events("delivered") if e["sta"] == "u0"]
    assert delivered_u["t"] == 794 and delivered_u["delay"] == 294
    assert tone_union(b) == [(500, 794)]
    # preemption re-draws from the UNCHANGED window: both draws saw hi=15
    assert reg.rng.uniform_calls == [(0, 15), (0, 15)]
    # regular frame restarts in full once the suspension lifts:
    # resume 794+43 anchor, draw 3 -> tx 864, delivered 864+2060
    (delivered_r,) = [e for e in b.events("delivered") if e["sta"] == "r0"]
    assert delivered_r["t"] == 2924
    assert reg.head is None and reg.retry_count == 0


def test_fast_path_on_idle_network_same_delay():
    b = Bench()
    u = b.add_urllc("u0")
    b.enqueue_at(1000, u)
    b.run(2000)
    (delivered,) = b.events("delivered")
    assert delivered["t"] == 1294 and delivered["delay"] == 294
    assert u.rng.uniform_calls == []  # fast path: no backoff draw at all


def test_arrival_during_active_tone_contends():
    b = Bench()
    u1 = b.add_urllc("u0")
    u2 = b.add_urllc("u1", draws=[2])
    b.enqueue_at(1000, u1)
    b.enqueue_at(1100, u2)
    b.run(3000)
    tones = b.events("tone_on")
    assert [e["fast"] for e in tones] == [True, False]
    assert u2.rng.uniform_calls == [(0, 3)]  # normal draw from cw_min
    delivered = {e["sta"]: e["t"] for e in b.events("delivered")}
    # u1: 1000+294.  u2 counts main-channel idle only: freeze during u1's
    # data and ack, two slots after 1294+34 -> tx 1346, done 1606.
    assert delivered == {"u0": 1294, "u1": 1606}
    # the control channel never went idle between the two services
    assert tone_union(b) == [(1000, 1606)]


def test_simultaneous_arrivals_both_take_fast_path_and_collide():
    b = Bench()
    u1 = b.add_urllc("u0", draws=[0])
    u2 = b.add_urllc("u1", draws=[2])
    b.enqueue_at(1000, u1)
    b.enqueue_at(1000, u2)
    b.run(3000)
    assert [e["fast"] for e in b.events("tone_on")] == [True, True]
    first_ends = b.events("tx_end")[:2]
    assert [e["outcome"] for e in first_ends] == ["collided", "collided"]
    # both retries draw from the doubled window (3+1)*2-1 = 7
    assert u1.rng.uniform_calls == [(0, 7)]
    assert u2.rng.uniform_calls == [(0, 7)]
    delivered = {e["sta"]: e["t"] for e in b.events("delivered")}
    # timeout 1303, anchor 1337: u0 wins (draw 0) -> done 1597;
    # u1 keeps counter 2 -> tx 1649, done 1909.
    assert delivered == {"u0": 1597, "u1": 1909}
    assert b.collector.collided["urllc"] == 2
    assert tone_union(b) == [(1000, 1909)]


def test_suspension_freezes_regular_counter_through_whole_tone():
    b = Bench()
    reg_a = b.add_regular("r0", draws=[0, 3])
    reg_b = b.add_regular("r1", draws=[6])
    u = b.add_urllc("u0")
    b.enqueue_at(0, reg_a)
    b.enqueue_at(0, reg_b)
    b.enqueue_at(500, u)
    b.run(10_000)
    starts = [e for e in b.events("tx_start") if e["sta"] == "r1"]
    # r1 froze at counter 6 before the tone; it rides out the suspension
    # untouched, loses 3 slots to r0's retransmission [864, 2924 exchange],
    # then fires 2924+43+27.
    assert starts[0]["t"] == 2994
    assert reg_b.rng.uniform_calls == [(0, 15)]  # never re-drawn


def test_the_tone_arms_no_listener_that_it_freezes_in_the_same_microsecond(
        monkeypatch):
    # r0's abort at the tone onset empties the channel.  The tone is heard
    # before any listener is told, so that idle edge arms neither r1 nor r2:
    # an arm made and frozen in one microsecond would be wasted work.
    # Every arm and every freeze goes through one of four functions: the
    # medium arms whole classes and a class freezes all its waiting
    # stations, a station arms itself alone, and a class freezes such a
    # station through Station.on_main_busy.
    armed_at, wasted = {}, []
    stations = []

    def recording(fn):
        def wrapper(obj, t, *args, **kwargs):
            before = [sta.fire_at for sta in stations]
            fn(obj, t, *args, **kwargs)
            for sta, was in zip(stations, before):
                if was is None and sta.fire_at is not None:
                    armed_at[sta.sta_id] = t
                elif was is not None and sta.fire_at is None \
                        and armed_at.get(sta.sta_id) == t:
                    wasted.append((t, sta.sta_id))
        return wrapper

    for owner, name in ((AccessClass, "start"), (AccessClass, "stop"),
                        (Station, "on_main_idle"), (Station, "on_main_busy")):
        monkeypatch.setattr(owner, name, recording(getattr(owner, name)))
    b = Bench()
    stations += [b.add_regular("r0", draws=[0, 3]),
                 b.add_regular("r1", draws=[5]), b.add_regular("r2", draws=[7])]
    u = b.add_urllc("u0")
    for sta in stations:
        b.enqueue_at(0, sta)
    b.enqueue_at(500, u)
    b.run(6000)
    assert [(e["sta"], e["t"]) for e in b.events("preempted")] == [("r0", 500)]
    assert armed_at and wasted == []


def test_a_cohort_that_loses_its_earliest_member_to_the_tone_keeps_its_rank():
    # d = 3.  A foreign tone rises at 998, so u1's arrival at 999 contends
    # (draw 2); a foreign frame holds the channel until 1000.  The idle edge
    # at 1000 arms r0 (draw 0: 1043), r1 (draw 2: 1061) and u1 (1000 + 34 +
    # 18 = 1052) as one cohort, before the tone is heard at 1001.  The heard
    # edge freezes both regular members, r0 the earliest, so the cohort's
    # event moves to u1's boundary.  It keeps the rank it took at the idle
    # edge: a probe scheduled for 1052 after the idle edge and before the
    # heard one dispatches after u1's start.
    b = Bench(detection_delay=3)
    r0 = b.add_regular("r0", draws=[0])
    r1 = b.add_regular("r1", draws=[2])
    u1 = b.add_urllc("u1", draws=[2])
    b.medium.begin_transmission("x", "regular-data", 1000, lambda o: None)
    b.engine.schedule(998, lambda: b.medium.busy_tone_set("x", True))
    for sta in (r0, r1):
        b.enqueue_at(10, sta)
    b.enqueue_at(999, u1)
    busy_at_probe = []
    b.engine.schedule(1000, lambda: b.engine.schedule(  # after x's end event
        1052, lambda: busy_at_probe.append(b.medium.is_main_busy())))
    b.run(1001)
    assert r0.fire_at is None and r1.fire_at is None and u1.fire_at == 1052
    b.run(1100)
    assert [e["fast"] for e in b.events("tone_on")] == [False]
    starts = [(e["sta"], e["t"]) for e in b.events("tx_start")]
    assert starts == [("x", 0), ("u1", 1052)]
    assert busy_at_probe == [True]
    assert (r0.counter, r1.counter) == (0, 2)


def test_a_tone_clear_arms_every_waiting_listener_with_one_event():
    # A foreign tone holds [0, 1000) while five regular stations get a
    # frame on the idle main channel: all wait, suspended.  The clear at
    # 1000 arms the five behind one event at the earliest boundary,
    # 1000 + 43 + 9 = 1052, where r1 and r3 start in construction order.
    b = Bench()
    stations = [b.add_regular(f"r{i}", draws=[d, 0])
                for i, d in enumerate([3, 1, 4, 1, 5])]
    b.medium.busy_tone_set("z", True)
    b.engine.schedule(1000, lambda: b.medium.busy_tone_set("z", False))
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
    assert starts == [("r1", 1052), ("r3", 1052)]


def test_a_tone_heard_after_a_busy_edge_on_the_zero_boundary_stops_the_start():
    # r0's counter reaches 0 at 1043, where a foreign frame starts first:
    # r0 stays armed to transmit into the collision.  A tone heard later in
    # the same microsecond stops it before it starts, with counter 0, so it
    # resumes only at the tone clear: 3000 + 43.
    b = Bench()
    r0 = b.add_regular("r0", draws=[0])
    b.medium.begin_transmission("x", "regular-data", 1000, lambda o: None)
    b.enqueue_at(10, r0)
    b.engine.schedule(1043, lambda: b.medium.begin_transmission(
        "y", "regular-data", 100, lambda o: None))
    b.engine.schedule(1043, lambda: b.medium.busy_tone_set("z", True))
    b.engine.schedule(3000, lambda: b.medium.busy_tone_set("z", False))
    b.run(1043)
    assert r0.fire_at is None and r0.counter == 0
    b.run(5000)
    starts = [(e["sta"], e["t"]) for e in b.events("tx_start") if e["sta"] != "ap"]
    assert starts == [("x", 0), ("y", 1043), ("r0", 3043)]


@pytest.mark.parametrize("tone", [False, True], ids=["busy-edge", "busy-edge+tone"])
@pytest.mark.parametrize("arm", ["alone", "class"])
def test_the_boundary_rule_holds_for_both_arm_kinds(arm, tone):
    # A foreign w holds [0, 100).  r0 (draw 5) gets its frame at 10, so the
    # idle edge at 100 arms it with its class, or at 100 on the idle
    # channel, so it arms alone; either way for 100 + 43 + 45 = 188.  A
    # foreign x begins there first: r0 transmits into the collision.  A
    # tone raised later in that microsecond, before r0's event, stops it
    # instead, with counter 0, so it starts at the clear: 1000 + 43.
    b = Bench()
    r0 = b.add_regular("r0", draws=[5])
    b.medium.begin_transmission("w", "regular-data", 100, lambda o: None)
    b.engine.schedule(188, lambda: b.medium.begin_transmission(
        "x", "regular-data", 100, lambda o: None))
    if tone:
        b.engine.schedule(188, lambda: b.medium.busy_tone_set("z", True))
        b.engine.schedule(1000, lambda: b.medium.busy_tone_set("z", False))
    b.enqueue_at(10 if arm == "class" else 100, r0)
    b.run(187)
    assert (r0 in r0.ac.alone) == (arm == "alone") and r0.fire_at == 188
    b.run(188)
    starts = [(e["sta"], e["t"]) for e in b.events("tx_start")]
    if not tone:
        assert starts == [("w", 0), ("x", 188), ("r0", 188)]
        b.run(3000)
        assert [e["outcome"] for e in b.events("tx_end")[1:3]] == \
            ["collided", "collided"]
        return
    assert starts == [("w", 0), ("x", 188)]
    assert r0.fire_at is None and r0.counter == 0
    assert r0 not in r0.ac.alone and r0.ac.due == []
    b.run(5000)
    starts = [(e["sta"], e["t"]) for e in b.events("tx_start") if e["sta"] != "ap"]
    assert starts == [("w", 0), ("x", 188), ("r0", 1043)]


def test_tone_onset_on_the_transmit_boundary_cancels_the_start():
    # The regular station would fire exactly at t=43; the tone asserted in
    # the same microsecond (earlier in dispatch order) stops it before any
    # energy is on air: no preemption, no overlap.
    b = Bench()
    reg = b.add_regular("r0", draws=[0])
    u = b.add_urllc("u0")
    b.enqueue_at(0, reg)
    b.enqueue_at(43, u)
    b.run(4000)
    assert b.events("preempted") == []
    assert [e["outcome"] for e in b.events("tx_end")].count("aborted") == 0
    starts = {e["sta"]: e["t"] for e in b.events("tx_start") if e["sta"] != "ap"}
    # u0 delivers at 43+294 = 337; r0 resumes with counter 0: 337+43.
    assert starts == {"u0": 77, "r0": 380}


def test_backoff_expiry_dispatched_before_the_tone_onset_is_preempted():
    # Characterization of the opposite dispatch order to the test above:
    # r0 arms its t=43 transmission before u0's arrival is scheduled, so
    # the expiry dispatches first.  r0 goes on air, and the tone onset in
    # the same microsecond aborts it with zero length: it counts as a
    # preemption and costs a second backoff draw.
    b = Bench()
    reg = b.add_regular("r0", draws=[0, 2])
    u = b.add_urllc("u0")
    b.enqueue_at(0, reg)
    b.run(0)
    b.enqueue_at(43, u)
    b.run(4000)
    (pre,) = b.events("preempted")
    assert pre["sta"] == "r0" and pre["t"] == 43
    aborted = [e for e in b.events("tx_end") if e["outcome"] == "aborted"]
    assert [e["t"] for e in aborted] == [43]
    assert b.collector.preempted == 1
    assert reg.rng.uniform_calls == [(0, 15), (0, 15)]
    starts = [(e["sta"], e["t"]) for e in b.events("tx_start") if e["sta"] != "ap"]
    # r0's zero-length attempt at 43; u0 on air 43+34; r0 resumes with
    # its fresh draw of 2 after u0's delivery: 337+43+18.
    assert starts == [("r0", 43), ("u0", 77), ("r0", 398)]


def test_dropped_urllc_frame_releases_tone_at_drop_instant():
    b = Bench()
    u1 = b.add_urllc("u0", draws=[0] * 8)
    u2 = b.add_urllc("u1", draws=[0] * 8)
    b.enqueue_at(1000, u1)
    b.enqueue_at(1000, u2)
    b.run(10_000)
    drops = b.events("dropped")
    # 8 colliding attempts: first at 1034, then every 303 us after each
    # timeout; the 8th timeout lands at 1303 + 7*303 = 3424.
    assert [e["t"] for e in drops] == [3424, 3424]
    offs = b.events("tone_off")
    assert [(e["t"], e["reason"]) for e in offs] == \
        [(3424, "dropped"), (3424, "dropped")]
    assert b.collector.collided["urllc"] == 16
    assert b.events("delivered") == []


def test_ack_in_flight_is_never_preempted():
    # Tone rises inside the SIFS gap [2043, 2059): the regular data already
    # completed cleanly, its ack goes out anyway and collides with the
    # fast-path data; both sides retry by the normal rules.
    b = Bench()
    reg = b.add_regular("r0", draws=[0, 0])
    u = b.add_urllc("u0", draws=[0])
    b.enqueue_at(0, reg)
    b.enqueue_at(2050, u)
    b.run(10_000)
    assert b.events("preempted") == []
    ack_ends = [e for e in b.events("tx_end")
                if any(s["tx"] == e["tx"] and s["ftype"] == "ack"
                       for s in b.events("tx_start"))]
    assert ack_ends[0]["outcome"] == "collided"
    delivered = {e["sta"]: e["t"] for e in b.events("delivered")}
    # u0: collided at [2084, 2284), timeout 2353, retry tx 2387 -> 2647.
    assert delivered["u0"] == 2647
    # r0: ack timeout at 2112 doubled its window (a real loss signal),
    # suspended until 2647, retransmits 2690 -> 4750.
    assert delivered["r0"] == 4750
    assert reg.rng.uniform_calls == [(0, 15), (0, 31)]
    assert tone_union(b) == [(2050, 2647)]


def test_legacy_station_uses_plain_edca_with_urllc_parameters():
    b = Bench()
    u = b.add_legacy_urllc("u0", draws=[2])
    b.enqueue_at(1000, u)
    b.run(3000)
    assert b.events("tone_on") == [] and b.events("preempted") == []
    (delivered,) = b.events("delivered")
    assert delivered["delay"] == 294 + 2 * 9
