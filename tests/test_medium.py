import random

import pytest

from btwifi.engine import ContractViolation, Engine
from btwifi.medium import ABORTED, CLEAN, COLLIDED, Medium
from btwifi.metrics import MetricsCollector

from conftest import Bench


class Sink(MetricsCollector):
    """Collector that logs the main-channel edges flagged on its transmission
    hooks, and tone listener that logs the heard control edges."""

    def __init__(self):
        super().__init__(0, 10_000_000)
        self.log = []

    def on_tx_start(self, t, tx, busy_edge):
        super().on_tx_start(t, tx, busy_edge)
        if busy_edge:
            self.log.append(("main-busy", t))

    def on_tx_end(self, t, tx, outcome, idle_edge):
        super().on_tx_end(t, tx, outcome, idle_edge)
        if idle_edge:
            self.log.append(("main-idle", t))

    def on_control_busy(self, t):
        self.log.append(("control-busy", t))

    def on_control_idle(self, t):
        self.log.append(("control-idle", t))


def control_edges(sink):
    return [e for e in sink.log if e[0].startswith("control")]


def control_busy(sink):
    """The control level as the sink heard it: busy iff its last edge was."""
    edges = control_edges(sink)
    return bool(edges) and edges[-1][0] == "control-busy"


def main_busy(sink):
    """The main channel as the sink saw it: busy iff its last main edge was."""
    edges = [e for e in sink.log if e[0].startswith("main")]
    return bool(edges) and edges[-1][0] == "main-busy"


def make_medium(detection_delay=0):
    eng = Engine()
    sink = Sink()
    med = Medium(eng, detection_delay, sink)
    med.tone_listeners.append(sink)
    return eng, med, sink


def test_sole_transmission_is_clean():
    eng, med, sink = make_medium()
    outcomes = []
    med.begin_transmission("r0", "regular-data", 2000, outcomes.append)
    eng.run_until(3000)
    assert outcomes == [CLEAN]
    assert ("main-busy", 0) in sink.log and ("main-idle", 2000) in sink.log


def test_overlapping_transmissions_both_collide():
    eng, med, _ = make_medium()
    outcomes = {}
    med.begin_transmission("r0", "regular-data", 2000,
                           lambda o: outcomes.setdefault("r0", o))
    eng.schedule(500, lambda: med.begin_transmission(
        "r1", "regular-data", 2000, lambda o: outcomes.setdefault("r1", o)))
    eng.run_until(5000)
    assert outcomes == {"r0": COLLIDED, "r1": COLLIDED}


def test_back_to_back_transmissions_do_not_collide():
    # Half-open intervals: the second starts exactly when the first ends,
    # whichever of the end and the start was scheduled first.
    for start_first in (False, True):
        eng, med, _ = make_medium()
        outcomes = []
        start = lambda: med.begin_transmission("r1", "regular-data", 500,
                                               outcomes.append)
        if start_first:
            eng.schedule(1000, start)
        med.begin_transmission("r0", "regular-data", 1000, outcomes.append)
        if not start_first:
            eng.schedule(1000, start)
        eng.run_until(2000)
        assert outcomes == [CLEAN, CLEAN], start_first


def test_same_instant_starts_collide():
    eng, med, _ = make_medium()
    outcomes = []
    eng.schedule(34, lambda: med.begin_transmission(
        "u0", "urllc-data", 200, outcomes.append))
    eng.schedule(34, lambda: med.begin_transmission(
        "u1", "urllc-data", 200, outcomes.append))
    eng.run_until(1000)
    assert outcomes == [COLLIDED, COLLIDED]


def test_double_transmit_is_contract_violation():
    eng, med, _ = make_medium()
    med.begin_transmission("r0", "regular-data", 2000, lambda o: None)
    with pytest.raises(ContractViolation):
        med.begin_transmission("r0", "regular-data", 100, lambda o: None)


def test_abort_frees_channel_and_reports_aborted():
    eng, med, sink = make_medium()
    outcomes = []
    tx = med.begin_transmission("r0", "regular-data", 2000, outcomes.append)
    eng.schedule(500, lambda: med.abort_transmission(tx))
    eng.run_until(3000)
    assert outcomes == [ABORTED]
    assert ("main-idle", 500) in sink.log


def test_abort_at_scheduled_end_equals_natural_end():
    eng, med, _ = make_medium()
    outcomes = []
    tx = med.begin_transmission("r0", "regular-data", 2000, outcomes.append)

    def late_abort():
        # end event at t=2000 dispatches first (earlier seq) and removes it
        if tx.tx_id in med._active:
            med.abort_transmission(tx)

    eng.schedule(2000, late_abort)
    eng.run_until(3000)
    assert outcomes == [CLEAN]


def test_truncated_interval_still_collides():
    eng, med, _ = make_medium()
    outcomes = {}
    tx = med.begin_transmission("r0", "regular-data", 2000,
                                lambda o: outcomes.setdefault("r0", o))
    eng.schedule(300, lambda: med.begin_transmission(
        "r1", "regular-data", 100, lambda o: outcomes.setdefault("r1", o)))
    eng.schedule(500, lambda: med.abort_transmission(tx))
    eng.run_until(3000)
    assert outcomes == {"r0": ABORTED, "r1": COLLIDED}


def test_transmission_after_abort_does_not_overlap():
    # Mirror of the preemption picture: tone at t, abort at t, new data at
    # t+34 must be clean because the truncated interval ended earlier.
    eng, med, _ = make_medium()
    outcomes = {}
    tx = med.begin_transmission("r0", "regular-data", 2000,
                                lambda o: outcomes.setdefault("r0", o))
    eng.schedule(500, lambda: med.abort_transmission(tx))
    eng.schedule(534, lambda: med.begin_transmission(
        "u0", "urllc-data", 200, lambda o: outcomes.setdefault("u0", o)))
    eng.run_until(3000)
    assert outcomes == {"r0": ABORTED, "u0": CLEAN}


def test_abort_inactive_transmission_is_contract_violation():
    eng, med, _ = make_medium()
    outcomes = []
    tx = med.begin_transmission("r0", "regular-data", 100, outcomes.append)
    eng.run_until(200)
    with pytest.raises(ContractViolation):
        med.abort_transmission(tx)


def test_tone_register_transitions():
    # Only the first assertion and the last release are channel edges.
    eng, med, sink = make_medium()
    busy, idle = ("control-busy", 0), ("control-idle", 0)
    for sta, on, edges in (("u0", True, [busy]), ("u1", True, [busy]),
                           ("u0", False, [busy]), ("u1", False, [busy, idle])):
        med.busy_tone_set(sta, on)
        assert control_edges(sink) == edges, (sta, on)


def test_tone_contract_violations():
    eng, med, _ = make_medium()
    med.busy_tone_set("u0", True)
    with pytest.raises(ContractViolation):
        med.busy_tone_set("u0", True)
    with pytest.raises(ContractViolation):
        med.busy_tone_set("u9", False)


def test_tone_asserted_before_semantics():
    eng, med, _ = make_medium()

    seen = {}

    def at_100():
        med.busy_tone_set("u0", True)
        # another arrival in the same microsecond still sees idle
        seen[100] = med.tone_asserted_before(100)

    eng.schedule(100, at_100)
    eng.schedule(150, lambda: seen.setdefault(150, med.tone_asserted_before(150)))
    eng.run_until(200)
    assert seen == {100: False, 150: True}


def test_tone_asserted_before_reads_the_earliest_assertion():
    # a seeded walk of assertions and releases at instants that never
    # decrease, checked against the expression over every held tone
    eng, med, _ = make_medium()
    rng = random.Random(30)
    held = {}  # sta -> assertion instant
    last_release = -1
    release_then_assert = 0  # queries that only the release instant answers

    def step():
        nonlocal last_release, release_then_assert
        now = eng.now
        sta = rng.choice(["u0", "u1", "u2", "u3"])
        if sta in held:
            med.busy_tone_set(sta, False)
            del held[sta]
            last_release = now
        else:
            med.busy_tone_set(sta, True)
            held[sta] = now
        for t in (now, now + 1):
            older = any(since < t for since in held.values())
            assert med.tone_asserted_before(t) == (last_release == t or older)
            release_then_assert += bool(held) and last_release == t and not older

    t = 0
    for _ in range(2000):
        t += rng.choice([0, 0, 1, 3])
        eng.schedule(t, step)
    eng.run_until(t)
    assert release_then_assert > 0


def test_detection_delay_defers_control_broadcast():
    eng, med, sink = make_medium(detection_delay=5)
    eng.schedule(100, lambda: med.busy_tone_set("u0", True))
    eng.run_until(300)
    assert ("control-busy", 105) in sink.log


@pytest.mark.parametrize("delay", [0, 3])
def test_tone_heard_changes_at_the_heard_instant_before_listeners_are_told(delay):
    eng, med, sink = make_medium(detection_delay=delay)
    told = []  # (t, tone_heard) as each listener call found it
    sink.on_control_busy = sink.on_control_idle = \
        lambda t: told.append((t, med.tone_heard))
    eng.schedule(100, lambda: med.busy_tone_set("u0", True))
    eng.schedule(400, lambda: med.busy_tone_set("u0", False))
    probes = {}
    for t in (99 + delay, 399 + delay):
        eng.schedule(t, lambda t=t: probes.setdefault(t, med.tone_heard))
    eng.run_until(1000)
    assert told == [(100 + delay, True), (400 + delay, False)]
    assert probes == {99 + delay: False, 399 + delay: True}


def test_busy_flags_during_priority_exchange():
    # Timeline mirroring the preemption picture: tone at 100, regular frame
    # aborted at 100, data [134, 334), ack [350, 394), tone off at 394.
    eng, med, sink = make_medium()
    probes = {}
    tx = med.begin_transmission("r0", "regular-data", 2000, lambda o: None)

    def tone_on():
        med.busy_tone_set("u0", True)
        med.abort_transmission(tx)

    eng.schedule(100, tone_on)
    eng.schedule(134, lambda: med.begin_transmission("u0", "urllc-data", 200,
                                                     lambda o: None))
    eng.schedule(350, lambda: med.begin_transmission("ap", "ack", 44,
                                                     lambda o: None))
    eng.schedule(394, lambda: med.busy_tone_set("u0", False))
    for t in (50, 120, 200, 340, 370, 396):
        eng.schedule(t, lambda t=t: probes.setdefault(
            t, (main_busy(sink), control_busy(sink))))
    eng.run_until(1000)
    assert probes[50] == (True, False)    # regular frame on air
    assert probes[120] == (False, True)   # AIFS gap: main idle, tone up
    assert probes[200] == (True, True)    # priority data on air
    assert probes[340] == (False, True)   # SIFS gap before the ack
    assert probes[370] == (True, True)    # ack on air
    assert probes[396] == (False, False)  # everything done


def release_and_assert_at_500(release_first, detection_delay=0):
    """u0 holds the tone from 100; at 500 u0 releases and u1 asserts.

    u1 first reads tone_asserted_before(500), as an arrival does; the
    returned list holds what it saw.
    """
    eng, med, sink = make_medium(detection_delay)
    seen = []

    def release():
        med.busy_tone_set("u0", False)

    def assert_u1():
        seen.append(med.tone_asserted_before(500))
        med.busy_tone_set("u1", True)

    eng.schedule(100, lambda: med.busy_tone_set("u0", True))
    for fn in ((release, assert_u1) if release_first else (assert_u1, release)):
        eng.schedule(500, fn)
    eng.run_until(1000)
    return med, sink, seen


def test_a_tone_released_at_t_still_counts_as_up_at_t():
    # Tie kind (D): the new holder's view must not hang on the event order.
    for release_first in (True, False):
        _, _, seen = release_and_assert_at_500(release_first)
        assert seen == [True], release_first


def test_a_release_and_an_assertion_in_one_microsecond_leave_no_heard_gap():
    # Tie kind (E): with a detection delay the heard level stays busy, with
    # no idle edge and no busy edge at 505, whichever order ran first.
    for release_first in (True, False):
        med, sink, _ = release_and_assert_at_500(release_first, detection_delay=5)
        assert control_edges(sink) == [("control-busy", 105)], release_first
        assert control_busy(sink) and med.tone_heard, release_first


def test_may_count_is_the_one_start_rule():
    # r0's class obeys the tone, u0's is deaf to it.  A foreign ack-like
    # frame x (no frame id, so its end is an idle edge that starts classes)
    # holds [0, 100), a foreign tone z is heard over [50, 200).  The idle
    # edge at 100 starts only the deaf class; the clear at 200 starts the
    # obeying one and leaves the counting deaf class's since as it was.
    b = Bench()
    med = b.medium
    reg = b.add_regular("r0").ac
    urllc = b.add_urllc("u0").ac
    seen = {}

    def probe(label):
        seen[label] = (med.may_count(reg), med.may_count(urllc), reg.since, urllc.since)

    probe("idle")
    med.begin_transmission("x", "ack", 100, lambda o: None)
    probe("busy")
    b.engine.schedule(50, lambda: med.busy_tone_set("z", True))
    b.engine.schedule(50, lambda: probe("busy+tone"))
    b.engine.schedule(100, lambda: probe("tone"))
    b.engine.schedule(200, lambda: med.busy_tone_set("z", False))
    b.engine.schedule(200, lambda: probe("clear"))
    b.run(300)
    assert seen == {
        "idle": (True, True, None, None),
        "busy": (False, False, None, None),
        "busy+tone": (False, False, None, None),
        "tone": (False, True, None, 100),
        "clear": (True, True, 200, 100),
    }


def test_a_foreign_tone_cleared_in_a_sifs_gap_moves_no_start():
    # r0 (draw 0) sends a clean data frame [43, 2043), whose ack starts
    # SIFS later, at 2059; r1 (draw 2) waits in its class's heap.  A foreign
    # tone z is heard over [2045, 2050), inside that gap, where the clean
    # data end started no class: its clear starts the frozen classes, and
    # the ack's busy edge stops them again with no slot elapsed, so every
    # counter is as if the clear had started nothing.  u0 launches on the
    # fast path at 2052 + 34, into the ack; u1 contends under u0's tone at
    # 2054, arms alone for 2097 and freezes at 2059 with counter 1.  From
    # there: u1 at u0's collided end + 34 + 9, u0 at u1's ack end + 34, r0
    # (retry draw 0) at the tone clear + 43, r1 at r0's ack end + 43 + 18.
    b = Bench()
    r0 = b.add_regular("r0", draws=[0, 0])
    r1 = b.add_regular("r1", draws=[2, 0])
    u0 = b.add_urllc("u0", draws=[0, 0])
    u1 = b.add_urllc("u1", draws=[1, 0])
    b.enqueue_at(0, r0)
    b.enqueue_at(100, r1)
    b.engine.schedule(2045, lambda: b.medium.busy_tone_set("z", True))
    b.engine.schedule(2050, lambda: b.medium.busy_tone_set("z", False))
    b.enqueue_at(2052, u0)
    b.enqueue_at(2054, u1)
    b.run(2051)
    assert r1.ac.since == u0.ac.since == 2050
    b.run(2059)
    assert r1.ac.since is None and u0.ac.since is None
    assert (r1.counter, u1.counter) == (2, 1)
    b.run(10_000)
    starts = [(e["sta"], e["t"]) for e in b.events("tx_start")]
    assert starts == [("r0", 43), ("ap", 2059), ("u0", 2086), ("u1", 2329),
                      ("ap", 2545), ("u0", 2623), ("ap", 2839), ("r0", 2926),
                      ("ap", 4942), ("r1", 5047), ("ap", 7063)]
