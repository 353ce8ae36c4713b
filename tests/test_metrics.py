import pytest

from btwifi.engine import ContractViolation
from btwifi.mac import Frame
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
    col.on_main_busy(500)
    col.on_main_idle(1500)   # contributes [1000, 1500)
    col.on_main_busy(2000)
    col.on_main_idle(3000)   # contributes [2000, 3000)
    col.on_main_busy(10_500)  # open at the end: clipped to [10500, 11000)
    s = col.finalize("legacy", 0, 1, 1, {"regular": 0, "urllc": 0})
    assert s.channel_busy_fraction == pytest.approx(2000 / 10_000)
    assert 0.0 <= s.channel_busy_fraction <= 1.0


def test_accounting_identity_is_enforced():
    col = MetricsCollector(warmup=0, duration=1000)
    col.on_arrival(0, "r0", "regular", make_frame(0, "r0"))
    with pytest.raises(ContractViolation):
        col.finalize("legacy", 0, 1, 1, {"regular": 0, "urllc": 0})
    # the same books balance once the frame is reported in flight
    col2 = MetricsCollector(warmup=0, duration=1000)
    col2.on_arrival(0, "r0", "regular", make_frame(0, "r0"))
    col2.finalize("legacy", 0, 1, 1, {"regular": 1, "urllc": 0})
