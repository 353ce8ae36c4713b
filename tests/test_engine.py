import random

import pytest

from btwifi.engine import ContractViolation, Engine, RngStream
from btwifi.medium import Medium, Transmission
from test_ties import TieShuffledEngine


def test_schedule_and_dispatch_at_fire_time():
    eng = Engine()
    fired = []
    eng.schedule(2000, lambda: fired.append(eng.now))
    n = eng.run_until(5000)
    assert n == 1
    assert fired == [2000]
    assert eng.now == 5000


def test_same_time_events_dispatch_in_insertion_order():
    eng = Engine()
    order = []
    eng.schedule(100, lambda: order.append("a"))
    eng.schedule(100, lambda: order.append("b"))
    eng.schedule(100, lambda: order.append("c"))
    eng.run_until(100)
    assert order == ["a", "b", "c"]


def test_scheduling_in_the_past_is_fatal():
    eng = Engine()
    eng.schedule(50, lambda: None)
    eng.run_until(50)
    with pytest.raises(ContractViolation):
        eng.schedule(49, lambda: None)

    def on_timeout():
        pass

    # The message names the callback: a function by its qualified name, and
    # a callable instance, such as a frame's end event, by its class alone.
    with pytest.raises(ContractViolation, match=r"schedule at t=49 but clock is at "
                       r"t=50 \(test_scheduling_in_the_past_is_fatal\.<locals>\.on_timeout\)$"):
        eng.schedule(49, on_timeout)
    tx = Transmission(0, "r0", "regular-data", None, 49, lambda outcome: None,
                      Medium(eng, 0, None))
    with pytest.raises(ContractViolation, match=r"t=50 \(Transmission\)$"):
        eng.schedule(49, tx)


def test_cancel_pending_event():
    eng = Engine()
    fired = []
    ev = eng.schedule(100, lambda: fired.append(1))
    assert eng.cancel(ev) is True
    eng.run_until(200)
    assert fired == []


def test_cancel_twice_returns_false():
    eng = Engine()
    ev = eng.schedule(100, lambda: None)
    assert eng.cancel(ev) is True
    assert eng.cancel(ev) is False


def test_cancel_after_dispatch_returns_false():
    eng = Engine()
    ev = eng.schedule(100, lambda: None)
    eng.run_until(100)
    assert eng.cancel(ev) is False


def test_run_until_empty_queue_advances_clock():
    eng = Engine()
    assert eng.run_until(12345) == 0
    assert eng.now == 12345


def test_run_until_leaves_later_events_pending():
    eng = Engine()
    fired = []
    for t in (10, 20, 30, 40):
        eng.schedule(t, lambda t=t: fired.append(t))
    assert eng.run_until(30) == 3
    assert fired == [10, 20, 30]
    assert eng.pending() == 1
    eng.run_until(40)
    assert fired == [10, 20, 30, 40]


@pytest.mark.parametrize("make", [Engine, lambda: TieShuffledEngine(0)],
                         ids=["fifo", "tie_shuffled"])
def test_a_closed_engine_fires_nothing_and_still_counts_what_was_pending(make):
    eng = make()
    fired = []
    for t in (10, 20, 20, 30):
        eng.schedule(t, lambda t=t: fired.append(t))
    held = eng.schedule(40, lambda: fired.append(40))
    eng.cancel(eng.schedule(50, lambda: fired.append(50)))
    eng.run_until(10)
    eng.close()
    assert eng.pending() == 4  # at 20, 20, 30 and 40; not the cancelled one
    assert eng.cancel(held) is False  # close cancelled it
    assert eng.run_until(100) == 0
    assert fired == [10] and eng.now == 100
    eng.close()  # a second close drops nothing and forgets nothing
    assert eng.pending() == 4


def test_dispatch_times_are_nondecreasing():
    eng = Engine()
    seen = []
    rng = RngStream(7, "order-check")

    def chain():
        seen.append(eng.now)
        if len(seen) < 500:
            eng.schedule(eng.now + rng.uniform_int(0, 50), chain)

    for _ in range(5):
        eng.schedule(rng.uniform_int(0, 100), chain)
    eng.run_until(10_000_000)
    assert seen == sorted(seen)


def test_identical_seed_and_stream_reproduce_draws():
    a = RngStream(42, "sta0:backoff")
    b = RngStream(42, "sta0:backoff")
    assert [a.uniform_int(0, 1023) for _ in range(100)] == \
           [b.uniform_int(0, 1023) for _ in range(100)]
    a2 = RngStream(42, "sta1:backoff")
    assert [a.uniform_int(0, 1023) for _ in range(10)] != \
           [a2.uniform_int(0, 1023) for _ in range(10)]


def test_uniform_degenerate_interval():
    rng = RngStream(1, "x")
    assert all(rng.uniform_int(0, 0) == 0 for _ in range(10))


def test_uniform_rejects_inverted_interval():
    rng = RngStream(1, "x")
    with pytest.raises(ContractViolation):
        rng.uniform_int(5, 4)


def test_uniform_int_draws_what_randint_draws():
    # uniform_int inlines randint's rejection loop; twin generators must
    # give the same values and end in the same state, on every window the
    # default scenario reaches (backoff up to cw_max 1023, first arrival
    # below the 10 ms mean) and on random ones, negative bounds included
    windows = [(0, hi) for hi in range(1024)] + [(0, 9_999)]
    pick = random.Random(30)
    windows += [(lo, lo + pick.randrange(1 << pick.randrange(1, 48)))
                for lo in (pick.randint(-10**6, 10**6) for _ in range(500))]
    for seed, stream in ((1, "r0:backoff"), (7, "u3:arrival")):
        ours = RngStream(seed, stream)
        twin = random.Random(f"{seed}/{stream}")
        for lo, hi in windows:
            assert [ours.uniform_int(lo, hi) for _ in range(3)] == \
                   [twin.randint(lo, hi) for _ in range(3)], (lo, hi)
        assert ours._rng.getstate() == twin.getstate()


def test_uniform_empirical_mean():
    # Law of large numbers: mean of U[0,15] is 7.5.
    rng = RngStream(2024, "mean-check")
    n = 1_000_000
    total = sum(rng.uniform_int(0, 15) for _ in range(n))
    assert abs(total / n - 7.5) < 0.05


def test_uniform_chi_square():
    # 16 bins, df=15, critical value 30.578 at the 0.01 level.
    rng = RngStream(99, "chi2-check")
    n = 1_000_000
    counts = [0] * 16
    for _ in range(n):
        counts[rng.uniform_int(0, 15)] += 1
    expected = n / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 30.578


def test_exponential_empirical_mean():
    rng = RngStream(7, "exp-mean")
    n = 1_000_000
    total = sum(rng.exponential(10_000) for _ in range(n))
    assert abs(total / n - 10_000) < 50


def test_exponential_tail_probability():
    # P(X > mean) = 1/e for an exponential.
    rng = RngStream(8, "exp-tail")
    n = 1_000_000
    over = sum(1 for _ in range(n) if rng.exponential(10_000) > 10_000)
    assert abs(over / n - 0.36788) < 0.01


def test_exponential_floor_one_tick():
    rng = RngStream(9, "exp-floor")
    assert all(rng.exponential(1) >= 1 for _ in range(10_000))


def test_streams_factory_is_deterministic():
    s1 = RngStream(5, "u0:arrival")
    s2 = RngStream(5, "u0:arrival")
    assert [s1.exponential(100) for _ in range(50)] == \
           [s2.exponential(100) for _ in range(50)]
