import pytest

from btwifi.engine import ContractViolation
from btwifi.mac import Frame
from btwifi.medium import ABORTED, CLEAN, COLLIDED, Transmission
from btwifi.metrics import MetricsCollector, nearest_rank


def make_frame(arrival, sta="u0"):
    return Frame(f"{sta}:x", arrival)


def test_nearest_rank_definition():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 95) == 95
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 99) == 99
    assert nearest_rank(samples, 100) == 100
    assert nearest_rank([7], 95) == 7


def test_percentiles_are_ordered_on_random_samples():
    import random
    rng = random.Random(5)
    for _ in range(50):
        samples = sorted(rng.randrange(1, 10_000) for _ in range(rng.randrange(1, 60)))
        p50 = nearest_rank(samples, 50)
        p95 = nearest_rank(samples, 95)
        p99 = nearest_rank(samples, 99)
        assert p50 <= p95 <= p99 <= samples[-1]


def test_delay_sample_recorded_with_windowing():
    col = MetricsCollector(warmup=1000, duration=100_000)
    col.on_arrival(2000, "u0", "urllc", make_frame(2000))
    col.on_delivered(2294, "u0", "urllc", make_frame(2000), 0)
    assert col.urllc_delays == [294]


def test_frame_arriving_before_warmup_is_excluded_from_samples():
    col = MetricsCollector(warmup=1000, duration=100_000)
    col.on_arrival(900, "u0", "urllc", make_frame(900))
    col.on_delivered(1500, "u0", "urllc", make_frame(900), 0)
    assert col.urllc_delays == []
    assert col.delivered["urllc"] == 1  # still counted as delivered


def test_dropped_frame_has_no_delay_sample():
    col = MetricsCollector(warmup=0, duration=100_000)
    col.on_arrival(0, "u0", "urllc", make_frame(0))
    col.on_dropped(100, "u0", "urllc", make_frame(0))
    s = col.finalize("proposed", 1, 0, 1, {"regular": 0, "urllc": 0})
    assert s.urllc_dropped == 1 and s.urllc_delay_mean is None


def test_throughput_counts_bits_delivered_inside_window():
    col = MetricsCollector(warmup=1_000_000, duration=2_000_000)
    for t, bits in ((999_999, 1000), (1_000_000, 2000), (1_999_999, 4000)):
        col.on_arrival(0, "r0", "regular", make_frame(0, "r0"))
        col.on_delivered(t, "r0", "regular", make_frame(0, "r0"), bits)
    s = col.finalize("legacy", 0, 1, 1, {"regular": 0, "urllc": 0})
    # 6000 bits in a 1 s window
    assert s.regular_throughput_bps == pytest.approx(6000.0)


def test_zero_urllc_deliveries_leave_delay_fields_absent():
    col = MetricsCollector(warmup=0, duration=1_000_000)
    s = col.finalize("legacy", 0, 1, 1, {"regular": 0, "urllc": 0})
    assert s.urllc_delay_mean is None
    assert s.urllc_delay_p99 is None


def test_busy_fraction_is_clipped_union_over_window():
    col = MetricsCollector(warmup=1000, duration=11_000)
    tx = Transmission(0, "r0", "regular-data", "r0:1", 1500, None, None)
    col.on_tx_start(500, tx, True)
    col.on_tx_end(1500, tx, CLEAN, True)   # contributes [1000, 1500)
    col.on_tx_start(2000, tx, True)
    col.on_tx_start(2200, tx, False)  # no busy edge: the channel is busy
    col.on_tx_end(2500, tx, COLLIDED, False)  # no idle edge: still busy
    col.on_tx_end(3000, tx, COLLIDED, True)  # contributes [2000, 3000)
    col.on_tx_start(10_500, tx, True)  # open at the end: [10500, 11000)
    s = col.finalize("legacy", 0, 1, 1, {"regular": 0, "urllc": 0})
    assert s.channel_busy_fraction == pytest.approx(2000 / 10_000)
    assert 0.0 <= s.channel_busy_fraction <= 1.0


def test_tx_end_counts_collided_data_frames_and_aborts():
    col = MetricsCollector(warmup=0, duration=10_000)
    for ftype, outcome in (("regular-data", COLLIDED), ("urllc-data", COLLIDED),
                           ("ack", COLLIDED), ("regular-data", ABORTED),
                           ("urllc-data", CLEAN)):
        tx = Transmission(0, "x", ftype, None if ftype == "ack" else "x:0", 10, None, None)
        col.on_tx_start(0, tx, True)
        col.on_tx_end(10, tx, outcome, True)
    assert col.collided == {"regular": 1, "urllc": 1}  # a collided ack is not
    assert col.preempted == 1


def test_accounting_identity_is_enforced():
    col = MetricsCollector(warmup=0, duration=1000)
    col.on_arrival(0, "r0", "regular", make_frame(0, "r0"))
    with pytest.raises(ContractViolation):
        col.finalize("legacy", 0, 1, 1, {"regular": 0, "urllc": 0})
    # the same books balance once the frame is reported in flight
    col2 = MetricsCollector(warmup=0, duration=1000)
    col2.on_arrival(0, "r0", "regular", make_frame(0, "r0"))
    col2.finalize("legacy", 0, 1, 1, {"regular": 1, "urllc": 0})
