"""Same-microsecond ties: the physics must not hang on the engine's FIFO order.

TieShuffledEngine dispatches events that fall in one microsecond in a
seeded random order instead of insertion order.  Any such order is one the
protocol could have produced, so a row or a record that moves under it
shows a rule that depends on the scheduling order.

Legacy runs are checked with the default and a short regular ack, up to
M = 40, where one idle edge arms dozens of stations at once.
Proposed runs are checked at a detection delay d of 43 us only, because
two busy-tone ties are still open for d <= 34, the URLLC AIFS: (B) a heard
tone edge against a no-backoff launch, which share a microsecond at
d = 34, and (C) a heard tone edge against a regular backoff expiry.  At
d = 43 a no-backoff launch turns the main channel busy 34 us after the
tone onset, before the edge is heard, so no regular backoff can expire at
the heard instant.  A tone release against an assertion (D) and a heard
idle edge against a heard busy edge (E) are settled by the medium, so
they are in the check.
"""

import heapq
import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from btwifi import simulation
from btwifi.config import ScenarioConfig
from btwifi.engine import ContractViolation, Engine
from btwifi.simulation import run_single
from btwifi.tracecheck import scan_trace

SHORT_ACK = replace(ScenarioConfig().regular, ack_airtime=20)


class TieShuffledEngine(Engine):
    """An Engine that breaks fire-time ties with a seeded random key."""

    def __init__(self, tie_seed: int) -> None:
        super().__init__()
        self._ties = random.Random(tie_seed)

    def schedule(self, fire_at, fn):
        if fire_at < self.now:
            raise ContractViolation(f"schedule at t={fire_at} before t={self.now}")
        ev = [fire_at, self._ties.random(), fn]
        heapq.heappush(self._heap, ev)
        return ev


def canonical_records(lines):
    """The trace as a multiset, each tx id replaced by its (start, sta)."""
    records = [json.loads(line) for line in lines]
    tx_key = {r["tx"]: (r["t"], r["sta"]) for r in records if r["kind"] == "tx_start"}
    out = Counter()
    for r in records:
        if "tx" in r:
            r["tx"] = tx_key[r["tx"]]
        out[tuple(sorted(r.items()))] += 1  # every value is a scalar
    return out


def assert_order_free(monkeypatch, cfg, scheme, ms=(1, 5, 15)):
    """Rows and records of three tie-shuffled runs equal FIFO's."""
    for m in ms:
        for seed in (1, 2):
            rc = cfg.run_config(scheme, m, seed, trace=True)
            fifo = run_single(rc)
            want = canonical_records(fifo.trace_lines)
            for tie_seed in range(3):
                with monkeypatch.context() as patch:
                    patch.setattr(simulation, "Engine",
                                  lambda: TieShuffledEngine(tie_seed))
                    got = run_single(rc)
                where = (m, seed, tie_seed)
                assert got.summary == fifo.summary, where
                assert canonical_records(got.trace_lines) == want, where


@pytest.mark.parametrize("regular", [ScenarioConfig().regular, SHORT_ACK],
                         ids=["default-ack", "short-ack"])
def test_legacy_physics_does_not_depend_on_same_microsecond_order(
        monkeypatch, regular):
    cfg = ScenarioConfig(sim_duration=500_000, warmup=50_000, regular=regular)
    assert_order_free(monkeypatch, cfg, "legacy", ms=(1, 5, 15, 40))


def test_proposed_physics_does_not_depend_on_same_microsecond_order(
        monkeypatch):
    cfg = ScenarioConfig(sim_duration=500_000, warmup=50_000, detection_delay=43)
    assert_order_free(monkeypatch, cfg, "proposed")


def test_a_launch_at_the_instant_an_ack_ends_audits_clean():
    # With a 20 us regular ack, a URLLC arrival 2 us after a regular data
    # end takes the no-backoff path and launches exactly when the ack ends.
    # Its launch event was scheduled before the ack's end event.
    cfg = ScenarioConfig(sim_duration=10_000_000, warmup=100_000, regular=SHORT_ACK)
    res = run_single(cfg.run_config("proposed", 10, 2, trace=True))
    assert scan_trace(res.trace_lines, cfg.sim_duration, cfg.warmup) == []
