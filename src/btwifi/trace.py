"""Run-trace recording: one JSON object per simulation event of interest.

The trace is the externally checkable record of a run.  Everything the
summary claims (delays, throughput, busy fraction, preemption/tone
behaviour) can be recomputed from it by an independent scanner, so the
records carry absolute times and stable ids rather than simulator-internal
references.

Each record is written by one format string per kind, in the key order and
with the compact separators of json.dumps(record, separators=(",", ":")).
No string is escaped: the simulator generates every one, the ids as r{i},
u{j}, ap and <sta>:<n> and every other string as a module constant, and none
holds a quote, a backslash or a control character.  tests/test_trace.py
keeps json.dumps as the oracle for every kind.

The trace is kept as blocks of text, not as one string per record: the
Tracer joins every BLOCK lines into one string with "\n" as it goes, so a
record costs its bytes and a newline, about 71 B for a 70 B line, where a
str of its own costs 49 B more.  A finished run's lines are a TraceLines,
an immutable sequence over those blocks: iterating it splits one block at
a time, tracecheck parses each block with one json.loads, and
sweep writes a trace file one block at a time.  Since a TraceLines cannot
change after the run, tracecheck.load_records keeps its fold of it on the
value and every later audit of the run reuses that one parse.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from operator import index
from typing import Iterable

from .medium import ABORTED
from .metrics import MetricsCollector

BLOCK = 256  # lines per block of a TraceLines


class TraceLines:
    """The JSONL lines of a finished run, in order, kept as blocks of text.

    Each block is BLOCK lines joined by "\n", the last one BLOCK or fewer,
    so line i, counted from 0, is line i % BLOCK of block i // BLOCK.  No
    line holds a "\n": TraceLines(lines) refuses one, and the Tracer
    writes none.

    fold is the tracecheck.Trace that load_records folded from these lines,
    or None until a fold has succeeded; nothing else writes it.
    """

    __slots__ = ("_blocks", "_len", "fold")

    def __init__(self, lines: Iterable[str] = ()) -> None:
        blocks = []
        n = 0
        it = iter(lines)
        while chunk := list(islice(it, BLOCK)):
            block = "\n".join(chunk)
            if block.count("\n") != len(chunk) - 1:
                i = next(i for i, line in enumerate(chunk) if "\n" in line)
                raise ValueError(f"line {n + i + 1} holds a newline")
            blocks.append(block)
            n += len(chunk)
        self._blocks, self._len, self.fold = tuple(blocks), n, None

    @classmethod
    def _of_blocks(cls, blocks: Iterable[str], n: int) -> TraceLines:
        """The TraceLines of blocks already cut as described, n lines in all."""
        lines = cls.__new__(cls)
        lines._blocks, lines._len, lines.fold = tuple(blocks), n, None
        return lines

    @property
    def blocks(self) -> tuple[str, ...]:
        """The blocks of text; joined by "\n" they are the whole trace."""
        return self._blocks

    def __iter__(self):
        return chain.from_iterable(map(str.split, self._blocks, repeat("\n")))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> str:
        i = index(i)
        if not -self._len <= i < self._len:
            raise IndexError("TraceLines index out of range")
        block, line = divmod(i % self._len, BLOCK)
        return self._blocks[block].split("\n", line + 1)[line]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceLines):
            return NotImplemented
        # lines are cut into blocks one way, so equal lines make equal blocks
        return self._blocks == other._blocks

    def __repr__(self) -> str:
        return f"TraceLines(<{self._len} lines>)"


class Tracer(MetricsCollector):
    """A collector that also keeps each event as a JSONL line, BLOCK lines
    to a block of text, calling the MetricsCollector hook by name first; an
    aborted tx_end adds a preempted one."""

    def __init__(self, warmup, duration) -> None:
        super().__init__(warmup, duration)
        self._blocks: list[str] = []
        self._pending: list[str] = []  # the lines of the block being filled

    def emit(self, line: str) -> None:
        pending = self._pending
        pending.append(line)
        if len(pending) == BLOCK:
            self._blocks.append("\n".join(pending))
            pending.clear()

    def trace_lines(self) -> TraceLines:
        """Every line emitted so far; the Tracer may go on emitting."""
        blocks, pending = self._blocks, self._pending
        return TraceLines._of_blocks(
            blocks + ["\n".join(pending)] if pending else blocks,
            len(blocks) * BLOCK + len(pending))

    def on_arrival(self, t, sta, cls, frame) -> None:
        MetricsCollector.on_arrival(self, t, sta, cls, frame)
        self.emit(f'{{"t":{t},"kind":"arrival","sta":"{sta}",'
                  f'"frame":"{frame.frame_id}","cls":"{cls}"}}')

    def on_tx_start(self, t, tx, busy_edge) -> None:
        MetricsCollector.on_tx_start(self, t, tx, busy_edge)
        if tx.frame_id is None:
            self.emit(f'{{"t":{t},"kind":"tx_start","sta":"{tx.sta}",'
                      f'"tx":{tx.tx_id},"ftype":"{tx.ftype}","dur":{tx.end - t}}}')
        else:
            self.emit(f'{{"t":{t},"kind":"tx_start","sta":"{tx.sta}",'
                      f'"tx":{tx.tx_id},"ftype":"{tx.ftype}","dur":{tx.end - t},'
                      f'"frame":"{tx.frame_id}"}}')

    def on_tx_end(self, t, tx, outcome, idle_edge) -> None:
        MetricsCollector.on_tx_end(self, t, tx, outcome, idle_edge)
        self.emit(f'{{"t":{t},"kind":"tx_end","tx":{tx.tx_id},"outcome":"{outcome}"}}')
        if outcome == ABORTED:
            self.emit(f'{{"t":{t},"kind":"preempted","sta":"{tx.sta}",'
                      f'"frame":"{tx.frame_id}"}}')

    def on_tone_on(self, t, sta, fast) -> None:
        MetricsCollector.on_tone_on(self, t, sta, fast)
        self.emit(f'{{"t":{t},"kind":"tone_on","sta":"{sta}",'
                  f'"fast":{"true" if fast else "false"}}}')

    def on_tone_off(self, t, sta, reason) -> None:
        MetricsCollector.on_tone_off(self, t, sta, reason)
        self.emit(f'{{"t":{t},"kind":"tone_off","sta":"{sta}","reason":"{reason}"}}')

    def on_delivered(self, t, sta, cls, frame, payload_bits) -> None:
        MetricsCollector.on_delivered(self, t, sta, cls, frame, payload_bits)
        self.emit(f'{{"t":{t},"kind":"delivered","sta":"{sta}",'
                  f'"frame":"{frame.frame_id}","delay":{t - frame.arrival_time}}}')

    def on_dropped(self, t, sta, cls, frame) -> None:
        MetricsCollector.on_dropped(self, t, sta, cls, frame)
        self.emit(f'{{"t":{t},"kind":"dropped","sta":"{sta}","frame":"{frame.frame_id}"}}')
