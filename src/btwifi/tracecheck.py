"""Independent verification of run traces.

Everything here re-derives channel physics from the JSONL records alone:
interval overlap by sweep-line, tone occupancy by counting assertions,
busy time by interval union.  None of the simulator's internal flags are
consulted, so this module can catch bookkeeping bugs the simulator itself
cannot see.

The audits (scan_trace, replay_csv_row, count_kinds) read their lines once,
parsing one record at a time, and keep only compact state: one TxRecord per
transmission, the tone spans, per-kind tallies and the frames still open.
The tone check is a two-pointer sweep over the transmissions and the tone
spans, both sorted by start, so an audit takes O(n log n) time in the number
of records.

Command line:

    python -m btwifi.tracecheck [--config FILE] TRACE...

reads sim_duration_us, warmup_us and detection_delay_us from the scenario
file (or the defaults), streams each trace, prints one `file: problem` line
per problem and exits 0 when every trace is clean, 1 on any problem and 2 on
an unreadable file or a malformed record.
"""

from __future__ import annotations

import heapq
import json
import sys
from dataclasses import dataclass
from typing import Iterable, Optional

from .config import ScenarioConfig, parse_config
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


def _fold_tx(txs: dict[int, TxRecord], rec: dict, kind: str) -> Optional[str]:
    """Fold one tx_start or tx_end record into txs.

    Returns a problem string for a tx_end whose tx has no tx_start.
    """
    t = rec["t"]
    if kind == "tx_start":
        txid, dur = rec["tx"], rec["dur"]
        if not (type(t) is int and type(dur) is int and type(txid) is int):
            raise TypeError("tx_start needs integer t, tx and dur")
        txs[txid] = TxRecord(txid, rec["sta"], rec["ftype"], t, t + dur)
        return None
    if type(t) is not int:
        raise TypeError("tx_end needs an integer t")
    tx = txs.get(rec["tx"])
    if tx is None:
        return f"tx {rec['tx']}: tx_end without tx_start"
    tx.end = t
    tx.outcome = rec["outcome"]
    return None


def _by_start(txs: dict[int, TxRecord], duration: int) -> list[TxRecord]:
    """The transmissions sorted by start; one still in flight ends at duration."""
    for tx in txs.values():
        if tx.end is None:
            tx.end = min(tx.scheduled_end, duration)
    return sorted(txs.values(), key=lambda tx: (tx.start, tx.tx))


class _ToneLevel:
    """Tone level folded over tone_on/tone_off records in trace order."""

    __slots__ = ("spans", "level", "start")

    def __init__(self) -> None:
        self.spans: list[tuple[int, int]] = []  # ended spans of level > 0
        self.level = 0
        self.start = 0  # start of the current span

    def add(self, kind: str, t: int) -> None:
        if type(t) is not int:
            raise TypeError(f"{kind} needs an integer t")
        if kind == "tone_on":
            if self.level == 0:
                # keeps the spans sorted and disjoint, as the tone check needs
                if self.spans and t < self.spans[-1][1]:
                    raise ValueError(f"tone_on at {t} is earlier than the end "
                                     f"of the tone span before it")
                self.start = t
            self.level += 1
        else:
            self.level -= 1
            if self.level == 0 and t > self.start:
                self.spans.append((self.start, t))
            if self.level < 0:
                raise ValueError("tone_off without matching tone_on")

    def spans_until(self, duration: int) -> list[tuple[int, int]]:
        """The spans, with one still open at the end closed at duration."""
        if self.level > 0:
            return self.spans + [(self.start, duration)]
        return self.spans


def collect_transmissions(records: Iterable[dict], duration: int) -> list[TxRecord]:
    txs: dict[int, TxRecord] = {}
    for rec in records:
        kind = rec["kind"]
        if kind == "tx_start" or kind == "tx_end":
            problem = _fold_tx(txs, rec, kind)
            if problem is not None:
                raise ValueError(problem)
    return _by_start(txs, duration)


def tone_spans(records: Iterable[dict], duration: int) -> list[tuple[int, int]]:
    """Intervals during which at least one tone was asserted."""
    tone = _ToneLevel()
    for rec in records:
        kind = rec["kind"]
        if kind == "tone_on" or kind == "tone_off":
            tone.add(kind, rec["t"])
    return tone.spans_until(duration)


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
    """Physics checks over one run trace; returns problem strings.

    Reads lines once.  A malformed record raises ValueError naming its line.
    """
    by_id: dict[int, TxRecord] = {}
    tone = _ToneLevel()
    problems: list[str] = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            kind = rec["kind"]
            if kind == "tx_start" or kind == "tx_end":
                problem = _fold_tx(by_id, rec, kind)
                if problem is not None:
                    problems.append(problem)
            elif kind == "tone_on" or kind == "tone_off":
                tone.add(kind, rec["t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"line {lineno}: malformed record "
                             f"({type(exc).__name__}: {exc})") from exc
    txs = _by_start(by_id, duration)

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

    # Two pointers: txs and spans are sorted by start and spans are disjoint.
    spans = tone.spans_until(duration)
    first = 0  # spans before it ended before the current tx started
    for tx in txs:
        if tx.ftype != "regular-data":
            continue
        while first < len(spans) and spans[first][1] <= tx.start:
            first += 1
        # A span shorter than the detection delay can miss and still be
        # followed by one that hits, so the scan goes on past a miss.
        for i in range(first, len(spans)):
            a, b = spans[i]
            if a + detection_delay >= tx.end:
                break
            if min(tx.end, b) - max(tx.start, a + detection_delay) > 0:
                problems.append(
                    f"tx {tx.tx}: regular data on air inside tone interval "
                    f"[{a},{b}) beyond the {detection_delay} us detection delay")
                break
    return problems


def count_kinds(lines: Iterable[str]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for line in lines:
        if line.strip():
            kind = json.loads(line)["kind"]
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def replay_csv_row(lines: Iterable[str], scheme: str, m: int, n: int, seed: int,
                   duration: int, warmup: int, regular_payload_bits: int) -> str:
    """Recompute a summary CSV row from the trace alone, read in one pass."""
    open_frames: dict[str, tuple[int, str]] = {}  # frame -> (arrival, class)
    by_id: dict[int, TxRecord] = {}
    delays = []
    delivered = {"regular": 0, "urllc": 0}
    dropped = {"regular": 0, "urllc": 0}
    collided = {"regular": 0, "urllc": 0}
    preempted = 0
    regular_bits = 0
    for line in lines:
        if not line.strip():
            continue
        rec = json.loads(line)
        kind = rec["kind"]
        if kind == "arrival":
            open_frames[rec["frame"]] = (rec["t"], rec["cls"])
        elif kind == "delivered":
            arrived, cls = open_frames.pop(rec["frame"])
            delivered[cls] += 1
            if cls == "urllc":
                if arrived >= warmup:
                    delays.append(rec["t"] - arrived)
            elif rec["t"] >= warmup:
                regular_bits += regular_payload_bits
        elif kind == "dropped":
            dropped[open_frames.pop(rec["frame"])[1]] += 1
        elif kind == "preempted":
            preempted += 1
        elif kind == "tx_start" or kind == "tx_end":
            problem = _fold_tx(by_id, rec, kind)
            if problem is not None:
                raise ValueError(problem)

    txs = _by_start(by_id, duration)
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


def main(argv=None) -> int:
    import argparse  # only the command line needs it, not the importers

    p = argparse.ArgumentParser(
        prog="python -m btwifi.tracecheck",
        description="Audit JSONL run traces: print one `file: problem` line "
                    "per problem; exit 0 if every trace is clean, 1 on any "
                    "problem, 2 on an unreadable file or a malformed record.")
    p.add_argument("--config", metavar="FILE",
                   help="scenario file giving sim_duration_us, warmup_us and "
                        "detection_delay_us (omit for the defaults)")
    p.add_argument("traces", nargs="+", metavar="TRACE", help="JSONL trace file")
    args = p.parse_args(argv)
    try:
        if args.config is None:
            cfg = ScenarioConfig()
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"tracecheck: config error: {exc}", file=sys.stderr)
        return 2
    status = 0
    for path in args.traces:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                problems = scan_trace(fh, cfg.sim_duration, cfg.warmup,
                                      cfg.detection_delay)
        except (OSError, ValueError) as exc:
            print(f"tracecheck: {path}: {exc}", file=sys.stderr)
            status = 2
            continue
        for problem in problems:
            print(f"{path}: {problem}")
        if problems and status == 0:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
