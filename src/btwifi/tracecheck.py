"""Independent verification of run traces.

Everything here re-derives channel physics from the JSONL records alone:
interval overlap by sweep-line, tone occupancy by counting assertions,
busy time by interval union.  None of the simulator's internal flags are
consulted, so this module can catch bookkeeping bugs the simulator itself
cannot see.

_records is the only place a trace line is parsed: a block of a
trace.TraceLines at a time, or CHUNK lines at a time of any other iterable,
with one json.loads under a guard that proves it reads what json.loads line
by line would (see _loads_joined), and line by line otherwise, so the first
bad line is still the one named.  The lines of a block or a chunk are joined
by ",\n", a block's with one str.replace of its newlines, and a block's
line numbers are counted from its offset in the trace.

load_records folds its lines, read once, into a Trace of compact state:
one TxRecord per transmission, the tone spans, the delivered frames, the
drop and preemption counts and the count of each kind.  Any malformed record, a tx_end without its tx_start
included, raises a ValueError that names its line.  scan_trace and
replay_csv_row are load_records plus their own checks or counts.  The
replay takes every count from the trace and shares with the simulator only
metrics.summarize, which turns counts into a RunSummary.  count_kinds reads
only `kind` of the same records and names the line it cannot read the same
way.  The tone check is a two-pointer sweep over the transmissions and the
tone spans, both sorted by start, so an audit takes O(n log n) time in the
number of records.

A run's in-memory trace, a trace.TraceLines, is folded at most once: the
first load_records that succeeds keeps its Trace on the value, every later
load_records returns that Trace and count_kinds copies its counts, so
scan_trace, replay_csv_row and count_kinds of one run share one parse.  The
fold still reads only the JSONL text.  Any other iterable (a list, which
can be edited between calls, a file or a generator) is parsed on every
call.  No audit writes a Trace, so sharing one cannot change a result.

Command line:

    python -m btwifi.tracecheck [--config FILE] TRACE...

reads sim_duration_us and detection_delay_us from the scenario file (or the
defaults), audits each whole trace, warmup included, and prints each `file: problem`.
Exit 0: every trace is clean; 1: problems found; 2: no verdict (a usage error,
a bad or unreadable scenario, an unreadable trace or a malformed record).
"""

from __future__ import annotations

import heapq
import json
import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional

from .config import ConfigError, read_scenario
from .medium import ABORTED, CLEAN, COLLIDED
from .metrics import ACK_FTYPE, CLASSES, DATA_CLASS, DATA_FTYPE, summarize
from .sweep import summary_row
from .trace import TraceLines


# Each allowed value maps to itself, so one lookup both checks a value and
# returns a shared copy of it: json.loads makes a new string per record, and
# one kept per transmission would double its size.
_FTYPES = {f: f for f in (*DATA_FTYPE.values(), ACK_FTYPE)}
_OUTCOMES = {o: o for o in (CLEAN, COLLIDED, ABORTED)}
_CLASSES = {cls: cls for cls in CLASSES}

# Non-blank lines per json.loads.  The parse time is flat from 128 to 1,024
# lines, and a chunk's parsed records are all held at once.
CHUNK = 256
_JSON_SPACE = " \t\n\r"  # the whitespace json.loads skips around a value


class TxRecord(NamedTuple):
    """One transmission: a tuple, so a Trace shared by audits cannot be
    changed through a record that one of them returns."""
    tx: int
    ftype: str
    start: int
    scheduled_end: int
    end: Optional[int] = None  # actual end from tx_end (abort truncates)
    outcome: Optional[str] = None


@dataclass(slots=True)
class Trace:
    """One trace folded by load_records: all that the audits read of it.

    A Trace kept on a TraceLines is shared by every audit of that run, and
    no audit writes one: collect_transmissions and tone_spans return new
    lists, and a TxRecord is a tuple.
    """
    txs: dict[int, TxRecord]  # by tx id
    spans: list[tuple[int, int]]  # closed tone spans, sorted and disjoint
    tone_open: Optional[int]  # start of a tone span still open at the end
    delivered: list[tuple[int, int, str]]  # (t, arrival, class) per frame
    dropped: dict[str, int]  # per class
    preempted: int
    kinds: dict[str, int]  # records per kind in first-seen order, as count_kinds


def _malformed(lineno: int, exc: Exception) -> ValueError:
    return ValueError(f"line {lineno}: malformed record "
                      f"({type(exc).__name__}: {exc})")


def _records(lines: Iterable[str]):
    """(lineno, record) for each non-blank line, parsed CHUNK lines at a time,
    or a block at a time for a TraceLines.

    The records and the first error are those of json.loads line by line: a
    line it cannot read raises ValueError naming that line, after every
    record before it has been yielded.
    """
    if isinstance(lines, TraceLines):
        first = 1  # the line number of the block's first line
        for block in lines.blocks:
            n = block.count("\n") + 1
            yield from _parse_block(first, n, block)
            first += n
    else:
        yield from _line_records(lines, 1)


def _line_records(lines: Iterable[str], first: int):
    """_records of lines whose first line is line number first."""
    linenos: list[int] = []
    chunk: list[str] = []
    for lineno, line in enumerate(lines, first):
        if line.strip():
            linenos.append(lineno)
            chunk.append(line)
            if len(chunk) == CHUNK:
                yield from _parse_chunk(linenos, chunk)
                linenos, chunk = [], []
    if chunk:
        yield from _parse_chunk(linenos, chunk)


def _parse_chunk(linenos: list[int], chunk: list[str]):
    """The chunk's records, from one json.loads when _loads_joined can read
    the lines stripped; else line by line."""
    text = ",\n".join([line.strip(_JSON_SPACE) for line in chunk])
    records = _loads_joined(text, len(chunk))
    if records is None:
        return _parse_lines(linenos, chunk)
    return zip(linenos, records)


def _parse_block(first: int, n: int, block: str):
    """The records of a TraceLines block of n lines, from one json.loads
    when _loads_joined can read the lines as they are; else the block's
    lines go the way of any other lines, so a blank or padded line is
    skipped or stripped and the first bad line is named."""
    records = _loads_joined(block.replace("\n", ",\n"), n)
    if records is None:
        return _line_records(block.split("\n"), first)
    return zip(range(first, first + n), records)


def _loads_joined(text: str, n: int) -> Optional[list]:
    """The n records of n lines joined by ",\n", from one json.loads of
    text, when a guard proves that this reads each line as one object;
    else None.

    The guard is on text: it holds n-1 newlines, n-1 "},\n{" seams, n "{"
    and n "}", and starts with "{" and ends with "}".  A JSON string cannot
    hold a raw newline, so every newline is a seam between two lines and
    every seam's braces are structural.  With the first and the last
    character these are n braces of each kind, all there are: no brace is
    inside a string, no object nests in another, and the elements are
    exactly the lines, one object each.  Without the guard a record split
    over two lines and two records on one line would make the same number
    of elements and parse, where line by line both fail.  So the lines are
    joined by ",\n" and never by ",": two lines that a string spans, such
    as '{"a":"}' and '{"}', would then parse as one record.
    """
    if (text[:1] == "{" and text[-1:] == "}" and text.count("\n") == n - 1
            and text.count("},\n{") == n - 1
            and text.count("{") == n and text.count("}") == n):
        try:
            return json.loads(f"[{text}]")
        except (ValueError, RecursionError):
            pass  # the caller's parse line by line names the first that fails
    return None


def _parse_lines(linenos: list[int], chunk: list[str]):
    for lineno, line in zip(linenos, chunk):
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise _malformed(lineno, exc) from exc
        yield lineno, rec


def load_records(lines: Iterable[str]) -> Trace:
    """Fold a trace into a Trace, reading lines once.

    A TraceLines is folded once: the Trace is kept on it and returned by
    every later call.  A fold that raises is not kept, so each call raises
    again.  Any other iterable is folded on every call.

    A malformed record raises ValueError naming its line.  That includes a
    tx_end without a tx_start, a tx_start or tx_end repeated for one tx id,
    a tx_start whose duration is below 1, a tone_on from a station that
    holds a tone, a tone_off from one that holds none or earlier than the
    start of its tone span, a tone span that starts before the one before
    it ended, an arrival of a frame still open, a delivered, dropped or
    preempted frame that is not open, a frame delivered, dropped or
    preempted before it arrived, an ftype, outcome or frame class that the
    simulator never writes, and a kind that is a JSON array or object, which
    cannot be counted.  Records are otherwise free to go back in time: the
    physics checks, not the parse, judge a record that is out of order.
    """
    if isinstance(lines, TraceLines):
        if lines.fold is None:
            lines.fold = _fold(lines)
        return lines.fold
    return _fold(lines)


def _fold(lines: Iterable[str]) -> Trace:
    """load_records' fold, which counts every record's kind, one it
    otherwise ignores too."""
    txs: dict[int, TxRecord] = {}
    spans: list[tuple[int, int]] = []
    holders, start, preempted = set(), 0, 0  # tone holders, start of their span
    open_frames: dict[str, tuple[int, str]] = {}  # frame -> (arrival, class)
    delivered: list[tuple[int, int, str]] = []
    dropped = dict.fromkeys(CLASSES, 0)
    kinds: dict[str, int] = {}
    for lineno, rec in _records(lines):
        try:
            kind, t = rec["kind"], rec["t"]
            kinds[kind] = kinds.get(kind, 0) + 1
            if type(t) is not int:
                raise TypeError(f"{kind} needs an integer t")
            if kind == "tx_start":
                txid, dur, ftype = rec["tx"], rec["dur"], _FTYPES.get(rec["ftype"])
                if type(dur) is not int or type(txid) is not int:
                    raise TypeError("tx_start needs integer tx and dur")
                if ftype is None:
                    raise ValueError(f"unknown ftype {rec['ftype']!r}")
                if dur < 1:
                    raise ValueError(f"tx {txid} has duration {dur}, below 1")
                if txid in txs:
                    raise ValueError(f"tx {txid} already started")
                txs[txid] = TxRecord(txid, ftype, t, t + dur)
            elif kind == "tx_end":
                tx, outcome = txs[rec["tx"]], _OUTCOMES.get(rec["outcome"])
                if outcome is None:
                    raise ValueError(f"unknown outcome {rec['outcome']!r}")
                if tx.end is not None:
                    raise ValueError(f"tx {tx.tx} already ended")
                # an end as scheduled reuses that int: one object fewer per
                # transmission in a Trace kept for the audits of its run
                end = tx.scheduled_end if t == tx.scheduled_end else t
                txs[tx.tx] = TxRecord(tx.tx, tx.ftype, tx.start, tx.scheduled_end,
                                      end, outcome)
            elif kind == "arrival":
                cls = _CLASSES.get(rec["cls"])
                if cls is None:
                    raise ValueError(f"unknown frame class {rec['cls']!r}")
                frame = rec["frame"]
                if frame in open_frames:
                    raise ValueError(f"frame {frame!r} arrived while still open")
                open_frames[frame] = (t, cls)
            elif kind in ("delivered", "dropped", "preempted"):
                frame = rec["frame"]
                # a preempted frame is sent again, so it stays open
                arrival, cls = (open_frames[frame] if kind == "preempted"
                                else open_frames.pop(frame))
                if t < arrival:
                    raise ValueError(f"frame {frame!r} {kind} at {t}, "
                                     f"before its arrival at {arrival}")
                if kind == "delivered":
                    delivered.append((t, arrival, cls))
                elif kind == "dropped":
                    dropped[cls] += 1
                else:
                    preempted += 1
            elif kind == "tone_on":
                if rec["sta"] in holders:
                    raise ValueError(f"{rec['sta']} raised a second tone")
                if not holders:
                    # keeps the spans sorted and disjoint, as the tone check needs
                    if spans and t < spans[-1][1]:
                        raise ValueError(f"tone_on at {t} is earlier than the end "
                                         f"of the tone span before it")
                    start = t
                holders.add(rec["sta"])
            elif kind == "tone_off":
                if not holders:
                    raise ValueError("tone_off without matching tone_on")
                if rec["sta"] not in holders:
                    raise ValueError(f"tone_off from {rec['sta']}, which holds no tone")
                holders.remove(rec["sta"])
                if t < start:
                    raise ValueError(f"tone_off at {t} is earlier than the "
                                     f"start {start} of its tone span")
                if not holders and t > start:
                    spans.append((start, t))
        except (KeyError, TypeError, ValueError) as exc:
            raise _malformed(lineno, exc) from exc
    return Trace(txs, spans, start if holders else None, delivered,
                 dropped, preempted, kinds)


def collect_transmissions(trace: Trace, duration: int) -> list[TxRecord]:
    """The transmissions sorted by start; one still in flight ends at duration,
    in a new record, so the Trace is left unchanged."""
    txs = [tx if tx.end is not None
           else tx._replace(end=min(tx.scheduled_end, duration))
           for tx in trace.txs.values()]
    txs.sort(key=attrgetter("start", "tx"))
    return txs


def tone_spans(trace: Trace, duration: int) -> list[tuple[int, int]]:
    """Intervals with at least one tone asserted, in a new list; one still
    open ends at duration."""
    if trace.tone_open is None:
        return list(trace.spans)
    return trace.spans + [(trace.tone_open, duration)]


def union_measure(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Measure of the union of intervals clipped to [lo, hi)."""
    total = 0
    reach = lo  # [lo, reach) holds everything counted so far
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
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
    warmup is accepted and ignored: the whole run is audited, warmup included.
    """
    trace = load_records(lines)
    txs = collect_transmissions(trace, duration)
    problems: list[str] = []

    overlapped = mark_overlaps(txs)
    for tx in txs:
        if tx.outcome is None:
            continue  # in flight at sim end; no outcome to check
        if tx.outcome == ABORTED:
            if tx.ftype != DATA_FTYPE["regular"]:
                problems.append(f"tx {tx.tx}: {tx.ftype} must never be preempted")
            if not tx.start <= tx.end <= tx.scheduled_end:
                problems.append(f"tx {tx.tx}: abort time outside its airtime")
            continue
        if tx.end != tx.scheduled_end:
            problems.append(f"tx {tx.tx}: ended at {tx.end}, scheduled {tx.scheduled_end}")
        hit = tx.tx in overlapped
        if tx.outcome == CLEAN and hit:
            problems.append(f"tx {tx.tx}: reported clean but overlaps another transmission")
        elif tx.outcome == COLLIDED and not hit:
            problems.append(f"tx {tx.tx}: reported collided but overlaps nothing")

    # Two pointers: txs and spans are sorted by start and spans are disjoint.
    spans = tone_spans(trace, duration)
    first = 0  # spans before it ended before the current tx started
    for tx in txs:
        if tx.ftype != DATA_FTYPE["regular"]:
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
    """Records per kind, in first-seen order.

    A TraceLines already folded gives a copy of its Trace's counts.  Any
    other call parses the lines and starts no fold: it reads only `kind`,
    so a trace that load_records rejects, say for a tx_end without its
    tx_start, is still counted.
    """
    if isinstance(lines, TraceLines) and lines.fold is not None:
        return dict(lines.fold.kinds)
    counts: dict[str, int] = {}
    for lineno, rec in _records(lines):
        try:
            kind = rec["kind"]
            counts[kind] = counts.get(kind, 0) + 1
        except (KeyError, TypeError) as exc:
            raise _malformed(lineno, exc) from exc
    return counts


def replay_csv_row(lines: Iterable[str], scheme: str, m: int, n: int, seed: int,
                   duration: int, warmup: int, regular_payload_bits: int) -> str:
    """Recompute a summary CSV row from the trace's own counts, read in one
    pass; only metrics.summarize's arithmetic is shared with the simulator."""
    trace = load_records(lines)
    delays = []
    delivered = dict.fromkeys(CLASSES, 0)
    regular_bits = 0
    for t, arrival, cls in trace.delivered:
        delivered[cls] += 1
        if cls == "urllc":
            if arrival >= warmup:
                delays.append(t - arrival)
        elif t >= warmup:
            regular_bits += regular_payload_bits
    txs = collect_transmissions(trace, duration)
    collided = dict.fromkeys(CLASSES, 0)
    for tx in txs:
        if tx.outcome == COLLIDED and tx.ftype in DATA_CLASS:  # not an ack
            collided[DATA_CLASS[tx.ftype]] += 1
    busy = union_measure([(tx.start, tx.end) for tx in txs], warmup, duration)
    return summary_row(summarize(scheme, m, n, seed, duration, warmup, delays,
                                 delivered, trace.dropped, collided,
                                 trace.preempted, regular_bits, busy))


def main(argv=None) -> int:
    import argparse  # only the command line needs it, not the importers

    p = argparse.ArgumentParser(
        prog="python -m btwifi.tracecheck",
        description="Audit JSONL run traces, one `file: problem` line per problem. "
                    "Exit 0: all clean; 1: problems found; 2: no verdict (a usage "
                    "error, a bad or unreadable scenario or trace, a malformed record).")
    p.add_argument("--config", metavar="FILE",
                   help="scenario file giving sim_duration_us and detection_delay_us "
                        "(omit for the defaults); the audit covers the whole run")
    p.add_argument("traces", nargs="+", metavar="TRACE", help="JSONL trace file")
    args = p.parse_args(argv)
    try:
        cfg = read_scenario(args.config)
    except ConfigError as exc:
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
