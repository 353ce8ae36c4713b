"""Independent verification of run traces.

Everything here re-derives channel physics from the JSONL records alone:
interval overlap by sweep-line, tone occupancy by counting assertions,
busy time by interval union.  None of the simulator's internal flags are
consulted, so this module can catch bookkeeping bugs the simulator itself
cannot see.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .metrics import RunSummary, nearest_rank
from .sweep import summary_row


@dataclass(slots=True)
class TxRecord:
    tx: int
    sta: str
    ftype: str
    start: int
    scheduled_end: int
    end: Optional[int] = None  # actual end from tx_end (abort truncates)
    outcome: Optional[str] = None


def load_records(lines: Iterable[str]) -> list[dict]:
    return [json.loads(line) for line in lines if line.strip()]


def collect_transmissions(records: list[dict], duration: int) -> list[TxRecord]:
    txs: dict[int, TxRecord] = {}
    for rec in records:
        kind = rec["kind"]
        if kind == "tx_start":
            txs[rec["tx"]] = TxRecord(rec["tx"], rec["sta"], rec["ftype"],
                                      rec["t"], rec["t"] + rec["dur"])
        elif kind == "tx_end":
            tx = txs[rec["tx"]]
            tx.end = rec["t"]
            tx.outcome = rec["outcome"]
    out = []
    for tx in txs.values():
        if tx.end is None:  # still in flight when the run ended
            tx.end = min(tx.scheduled_end, duration)
        out.append(tx)
    out.sort(key=lambda tx: (tx.start, tx.tx))
    return out


def tone_spans(records: list[dict], duration: int) -> list[tuple[int, int]]:
    """Intervals during which at least one tone was asserted."""
    spans = []
    level = 0
    span_start = 0
    for rec in records:
        if rec["kind"] == "tone_on":
            if level == 0:
                span_start = rec["t"]
            level += 1
        elif rec["kind"] == "tone_off":
            level -= 1
            if level == 0 and rec["t"] > span_start:
                spans.append((span_start, rec["t"]))
            if level < 0:
                raise ValueError("tone_off without matching tone_on")
    if level > 0:
        spans.append((span_start, duration))
    return spans


def union_measure(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Measure of the union of intervals clipped to [lo, hi)."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s = max(s, lo)
        e = min(e, hi)
        if e <= s:
            continue
        if cur_e is None:
            cur_s, cur_e = s, e
        elif s <= cur_e:
            if e > cur_e:
                cur_e = e
        else:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def mark_overlaps(txs: list[TxRecord]) -> set[int]:
    """Sweep-line pass returning the tx ids that overlap any other tx."""
    overlapped: set[int] = set()
    active: list[tuple[int, int]] = []  # (end, tx_id) heap
    for tx in txs:  # txs sorted by start
        while active and active[0][0] <= tx.start:
            heapq.heappop(active)
        if active:
            overlapped.add(tx.tx)
            overlapped.update(txid for _, txid in active)
        heapq.heappush(active, (tx.end, tx.tx))
    return overlapped


def scan_trace(lines: Iterable[str], duration: int, warmup: int,
               detection_delay: int = 0) -> list[str]:
    """Physics checks over one run trace; returns problem strings."""
    records = load_records(lines)
    txs = collect_transmissions(records, duration)
    problems: list[str] = []

    overlapped = mark_overlaps(txs)
    for tx in txs:
        if tx.outcome is None:
            continue  # in flight at sim end; no outcome to check
        if tx.outcome == "aborted":
            if tx.ftype != "regular-data":
                problems.append(f"tx {tx.tx}: {tx.ftype} must never be preempted")
            if not tx.start <= tx.end <= tx.scheduled_end:
                problems.append(f"tx {tx.tx}: abort time outside its airtime")
            continue
        if tx.end != tx.scheduled_end:
            problems.append(f"tx {tx.tx}: ended at {tx.end}, scheduled {tx.scheduled_end}")
        hit = tx.tx in overlapped
        if tx.outcome == "clean" and hit:
            problems.append(f"tx {tx.tx}: reported clean but overlaps another transmission")
        elif tx.outcome == "collided" and not hit:
            problems.append(f"tx {tx.tx}: reported collided but overlaps nothing")

    spans = tone_spans(records, duration)
    for tx in txs:
        if tx.ftype != "regular-data":
            continue
        for a, b in spans:
            if min(tx.end, b) - max(tx.start, a + detection_delay) > 0:
                problems.append(
                    f"tx {tx.tx}: regular data on air inside tone interval "
                    f"[{a},{b}) beyond the {detection_delay} us detection delay")
                break
    return problems


def count_kinds(lines: Iterable[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for rec in load_records(lines):
        counts[rec["kind"]] = counts.get(rec["kind"], 0) + 1
    return counts


def replay_csv_row(lines: Iterable[str], scheme: str, m: int, n: int, seed: int,
                   duration: int, warmup: int, regular_payload_bits: int) -> str:
    """Recompute a summary CSV row from the trace alone."""
    records = load_records(lines)
    arrivals: dict[str, tuple[int, str]] = {}  # frame -> (time, class)
    delays = []
    delivered = {"regular": 0, "urllc": 0}
    dropped = {"regular": 0, "urllc": 0}
    collided = {"regular": 0, "urllc": 0}
    preempted = 0
    regular_bits = 0
    for rec in records:
        kind = rec["kind"]
        if kind == "arrival":
            arrivals[rec["frame"]] = (rec["t"], rec["cls"])
        elif kind == "delivered":
            arrived, cls = arrivals[rec["frame"]]
            delivered[cls] += 1
            if cls == "urllc":
                if arrived >= warmup:
                    delays.append(rec["t"] - arrived)
            elif rec["t"] >= warmup:
                regular_bits += regular_payload_bits
        elif kind == "dropped":
            dropped[arrivals[rec["frame"]][1]] += 1
        elif kind == "preempted":
            preempted += 1

    txs = collect_transmissions(records, duration)
    for tx in txs:
        if tx.outcome == "collided" and tx.ftype != "ack":
            collided[tx.ftype.split("-", 1)[0]] += 1
    busy = union_measure([(tx.start, tx.end) for tx in txs], warmup, duration)
    window = duration - warmup
    delays.sort()
    if delays:
        mean = sum(delays) / len(delays)
        median, p95, p99, dmax = (nearest_rank(delays, p) for p in (50, 95, 99, 100))
    else:
        mean = median = p95 = p99 = dmax = None
    return summary_row(RunSummary(
        scheme=scheme, m_urllc=m, n_regular=n, seed=seed,
        sim_duration=duration, warmup=warmup,
        urllc_delay_mean=mean, urllc_delay_median=median, urllc_delay_p95=p95,
        urllc_delay_p99=p99, urllc_delay_max=dmax,
        urllc_delivered=delivered["urllc"], urllc_dropped=dropped["urllc"],
        urllc_collided=collided["urllc"],
        regular_throughput_bps=regular_bits * 1_000_000 / window,
        regular_delivered=delivered["regular"],
        regular_dropped=dropped["regular"], regular_preempted=preempted,
        regular_collided=collided["regular"],
        channel_busy_fraction=busy / window))
