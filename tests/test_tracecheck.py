import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from btwifi import tracecheck
from btwifi.config import ScenarioConfig
from btwifi.metrics import summary_row
from btwifi.simulation import run_single
from btwifi.trace import TraceLines
from btwifi.tracecheck import (collect_transmissions, count_kinds,
                               load_records, mark_overlaps, replay_csv_row,
                               scan_trace, tone_spans, union_measure)
from conftest import trace_lines

CFG = ScenarioConfig(n_regular=3, sim_duration=2_000_000, warmup=200_000)


def traced_run(scheme, m, seed=1, cfg=CFG):
    return run_single(cfg.run_config(scheme, m, seed, trace=True))


def test_union_measure():
    assert union_measure([(0, 10), (5, 20), (30, 40)], 0, 100) == 30
    assert union_measure([(0, 10)], 5, 8) == 3
    assert union_measure([], 0, 100) == 0
    assert union_measure([(0, 10), (10, 20)], 0, 100) == 20


def test_mark_overlaps_pairs_and_chains():
    mk = lambda i, s, e: type("T", (), {"tx": i, "start": s, "end": e})()
    txs = [mk(0, 0, 100), mk(1, 0, 50), mk(2, 60, 70), mk(3, 100, 120),
           mk(4, 200, 210)]
    assert mark_overlaps(txs) == {0, 1, 2}


def test_scanner_accepts_real_traces():
    for scheme in ("legacy", "proposed"):
        for m in (0, 1, 3):
            res = traced_run(scheme, m)
            problems = scan_trace(res.trace_lines, CFG.sim_duration, CFG.warmup)
            assert problems == [], (scheme, m, problems[:3])


def test_scanner_flags_injected_clean_overlap():
    res = traced_run("proposed", 2)
    lines = list(res.trace_lines)
    # forge a "clean" transmission overlapping an existing clean one
    victim = next(json.loads(l) for l in lines
                  if json.loads(l)["kind"] == "tx_start")
    fake_start = dict(t=victim["t"] + 1, kind="tx_start", sta="zz", tx=999999,
                      ftype="regular-data", dur=50)
    fake_end = dict(t=victim["t"] + 51, kind="tx_end", tx=999999,
                    outcome="clean")
    lines += [json.dumps(fake_start), json.dumps(fake_end)]
    problems = scan_trace(lines, CFG.sim_duration, CFG.warmup)
    assert any("clean but overlaps" in p for p in problems)


def test_scanner_flags_regular_data_inside_tone():
    res = traced_run("proposed", 2)
    lines = list(res.trace_lines)
    tone = next(json.loads(l) for l in lines
                if json.loads(l)["kind"] == "tone_on")
    fake_start = dict(t=tone["t"] + 5, kind="tx_start", sta="zz", tx=888888,
                      ftype="regular-data", dur=40)
    fake_end = dict(t=tone["t"] + 45, kind="tx_end", tx=888888,
                    outcome="collided")
    lines += [json.dumps(fake_start), json.dumps(fake_end)]
    problems = scan_trace(lines, CFG.sim_duration, CFG.warmup)
    assert any("tone interval" in p for p in problems)


def test_scanner_flags_wrong_end_time():
    res = traced_run("legacy", 1)
    lines = list(res.trace_lines)
    lines += [json.dumps(dict(t=100, kind="tx_start", sta="zz", tx=777777,
                              ftype="ack", dur=44)),
              json.dumps(dict(t=150, kind="tx_end", tx=777777,
                              outcome="clean"))]
    problems = scan_trace(lines, CFG.sim_duration, CFG.warmup)
    assert any("scheduled" in p for p in problems)


def test_tone_spans_merge_overlapping_holders():
    lines = synthetic((10, "tone_on", dict(sta="a", fast=True)),
                      (20, "tone_on", dict(sta="b", fast=False)),
                      (30, "tone_off", dict(sta="a", reason="delivered")),
                      (50, "tone_off", dict(sta="b", reason="delivered")),
                      (70, "tone_on", dict(sta="c", fast=True)))
    assert tone_spans(load_records(lines), 100) == [(10, 50), (70, 100)]


def test_conservation_busy_fraction_matches_summary():
    for scheme in ("legacy", "proposed"):
        res = traced_run(scheme, 2)
        txs = collect_transmissions(load_records(res.trace_lines),
                                    CFG.sim_duration)
        busy = union_measure([(t.start, t.end) for t in txs],
                             CFG.warmup, CFG.sim_duration)
        window = CFG.sim_duration - CFG.warmup
        assert busy / window == res.summary.channel_busy_fraction


def test_replay_reproduces_the_csv_row():
    for scheme, m in (("legacy", 2), ("proposed", 2), ("proposed", 0)):
        res = traced_run(scheme, m, seed=4)
        row = replay_csv_row(res.trace_lines, scheme, m, CFG.n_regular, 4,
                             CFG.sim_duration, CFG.warmup,
                             CFG.regular.payload_bits)
        assert row == summary_row(res.summary)


def test_legacy_traces_have_no_tone_or_preemption_events():
    res = traced_run("legacy", 3)
    kinds = count_kinds(res.trace_lines)
    assert "tone_on" not in kinds
    assert "tone_off" not in kinds
    assert "preempted" not in kinds


def test_trace_is_byte_identical_across_reruns():
    a = traced_run("proposed", 3, seed=9)
    b = traced_run("proposed", 3, seed=9)
    assert a.trace_lines.blocks == b.trace_lines.blocks
    c = traced_run("proposed", 3, seed=10)
    assert a.trace_lines.blocks != c.trace_lines.blocks


# -- the tone check against the quadratic oracle ------------------------------

def naive_tone_problems(lines, duration, detection_delay):
    """Every regular transmission against every tone span: the reference for
    scan_trace's two-pointer sweep."""
    records = load_records(lines)
    spans = tone_spans(records, duration)
    problems = []
    for tx in collect_transmissions(records, duration):
        if tx.ftype != "regular-data":
            continue
        for a, b in spans:
            if min(tx.end, b) - max(tx.start, a + detection_delay) > 0:
                problems.append(
                    f"tx {tx.tx}: regular data on air inside tone interval "
                    f"[{a},{b}) beyond the {detection_delay} us detection delay")
                break
    return problems


def shift_tones(lines, rng, max_shift=40):
    """Shift about a third of the tone records by up to max_shift us, keeping
    the trace in time order."""
    recs = [json.loads(line) for line in lines]
    for rec in recs:
        if rec["kind"] in ("tone_on", "tone_off") and rng.random() < 0.3:
            rec["t"] += rng.randint(-max_shift, max_shift)
    recs.sort(key=lambda rec: rec["t"])
    return [json.dumps(rec) for rec in recs]


def test_tone_sweep_matches_the_quadratic_oracle_on_mutated_traces():
    cfg = ScenarioConfig(n_regular=4, sim_duration=500_000, warmup=50_000)
    lines = traced_run("proposed", 5, seed=3, cfg=cfg).trace_lines
    rng = random.Random(2008)
    compared = 0
    for _ in range(12):
        mutated = shift_tones(lines, rng)
        for delay in (0, 3, 40, 500):
            try:
                want = naive_tone_problems(mutated, cfg.sim_duration, delay)
            except ValueError:  # a tone_off shifted before its tone_on
                with pytest.raises(ValueError):
                    scan_trace(mutated, cfg.sim_duration, cfg.warmup, delay)
                continue
            found = scan_trace(mutated, cfg.sim_duration, cfg.warmup, delay)
            assert [p for p in found if "tone interval" in p] == want
            compared += len(want)
    assert compared > 100  # the shifts do put regular data inside tones


def synthetic(*recs):
    """JSONL lines for (t, kind, fields) tuples, in time order."""
    return [json.dumps(dict(t=t, kind=kind, **fields))
            for t, kind, fields in sorted(recs, key=lambda r: r[0])]


def regular_tx(tx, start, end, outcome, dur=None):
    return ((start, "tx_start", dict(sta="r", tx=tx, ftype="regular-data",
                                     dur=end - start if dur is None else dur)),
            (end, "tx_end", dict(tx=tx, outcome=outcome)))


def tone(on, off):
    return ((on, "tone_on", dict(sta="u", fast=True)),
            (off, "tone_off", dict(sta="u", reason="delivered")))


def tone_record(t, kind, sta):
    fields = dict(fast=True) if kind == "tone_on" else dict(reason="delivered")
    return (t, kind, dict(sta=sta, **fields))


def test_tone_records_are_matched_by_holder_not_by_level():
    # The simulator refuses both: a station raises at most one tone, and
    # releases only the one it holds.  Counted by level alone, the first
    # trace below balances out into one closed span.
    lines = synthetic(tone_record(0, "tone_on", "u0"), tone_record(5, "tone_on", "u0"),
                      tone_record(10, "tone_off", "u1"))
    with pytest.raises(ValueError, match=r"^line 2: .*u0 raised a second tone"):
        scan_trace(lines, 1000, 0)
    lines = synthetic(tone_record(0, "tone_on", "u0"),
                      tone_record(10, "tone_off", "u1"))
    with pytest.raises(ValueError, match=r"^line 2: .*tone_off from u1, which "
                                         r"holds no tone"):
        scan_trace(lines, 1000, 0)
    # overlapping holders make one span, from the first tone_on to the last tone_off
    lines = synthetic(tone_record(0, "tone_on", "u0"), tone_record(5, "tone_on", "u1"),
                      tone_record(10, "tone_off", "u0"),
                      tone_record(20, "tone_off", "u1"))
    assert load_records(lines).spans == [(0, 20)]


def test_a_span_shorter_than_the_delay_does_not_hide_a_later_hit():
    lines = synthetic(*regular_tx(1, 50, 150, "clean"), *tone(100, 102),
                      *tone(110, 200))
    assert scan_trace(lines, 1000, 0, detection_delay=5) == [
        "tx 1: regular data on air inside tone interval [110,200) beyond "
        "the 5 us detection delay"]
    assert scan_trace(lines, 1000, 0, detection_delay=0) == [
        "tx 1: regular data on air inside tone interval [100,102) beyond "
        "the 0 us detection delay"]


def test_zero_length_abort_at_a_span_start_is_clean():
    lines = synthetic(*regular_tx(1, 100, 100, "aborted", dur=2000),
                      *regular_tx(2, 40, 100, "clean"), *tone(100, 300))
    for delay in (0, 3):
        assert scan_trace(lines, 1000, 0, delay) == []


def test_a_one_us_shift_of_a_tone_span_is_caught():
    res = traced_run("proposed", 3, seed=2)
    lines = list(res.trace_lines)
    recs = [json.loads(line) for line in lines]
    aborts = {r["t"]: r["tx"] for r in recs
              if r["kind"] == "tx_end" and r["outcome"] == "aborted"}
    starts = {r["tx"]: r["t"] for r in recs if r["kind"] == "tx_start"}
    # a tone onset that aborts a transmission already on air for > 1 us
    i = next(i for i, r in enumerate(recs) if r["kind"] == "tone_on"
             and r["t"] in aborts and starts[aborts[r["t"]]] < r["t"] - 1)
    onset, victim = recs[i]["t"], aborts[recs[i]["t"]]
    assert scan_trace(lines, CFG.sim_duration, CFG.warmup) == []
    lines[i] = json.dumps(dict(recs[i], t=onset - 1))
    problems = scan_trace(lines, CFG.sim_duration, CFG.warmup)
    assert len(problems) == 1
    assert problems[0].startswith(f"tx {victim}: regular data on air inside "
                                  f"tone interval [{onset - 1},")


def test_a_one_shot_iterator_gives_the_same_results_as_the_list():
    res = traced_run("proposed", 2, seed=5)
    lines = shift_tones(res.trace_lines, random.Random(5))
    problems = scan_trace(lines, CFG.sim_duration, CFG.warmup)
    assert problems
    assert scan_trace(iter(lines), CFG.sim_duration, CFG.warmup) == problems
    args = ("proposed", 2, CFG.n_regular, 5, CFG.sim_duration, CFG.warmup,
            CFG.regular.payload_bits)
    assert replay_csv_row(iter(lines), *args) == replay_csv_row(lines, *args)
    assert count_kinds(iter(lines)) == count_kinds(lines)


def test_collect_transmissions_leaves_the_trace_unchanged():
    trace = load_records(synthetic(
        (0, "tx_start", dict(sta="r", tx=1, ftype="regular-data", dur=50))))
    assert [tx.end for tx in collect_transmissions(trace, 20)] == [20]
    assert [tx.end for tx in collect_transmissions(trace, 100)] == [50]
    assert trace.txs[1].end is None


def test_transmissions_are_sorted_by_start_then_id():
    # the dict keeps tx ids in record order, which is not start order here
    trace = load_records(synthetic(*regular_tx(5, 0, 30, "clean"),
                                   *regular_tx(4, 10, 40, "collided"),
                                   *regular_tx(3, 10, 40, "collided"),
                                   *regular_tx(1, 50, 60, "clean")))
    assert list(trace.txs) == [5, 4, 3, 1]
    txs = collect_transmissions(trace, 100)
    assert [(tx.start, tx.tx) for tx in txs] == [(0, 5), (10, 3), (10, 4), (50, 1)]


# -- one fold per run's trace ---------------------------------------------------

def audits(lines, scheme, m, seed):
    """The criterion-6 flow on one trace: problems, replayed row, kind counts."""
    return (scan_trace(lines, CFG.sim_duration, CFG.warmup),
            replay_csv_row(lines, scheme, m, CFG.n_regular, seed,
                           CFG.sim_duration, CFG.warmup, CFG.regular.payload_bits),
            list(count_kinds(lines).items()))


def test_a_runs_audits_share_one_parse(monkeypatch):
    lines = traced_run("proposed", 2, seed=6).trace_lines
    assert type(lines) is TraceLines
    parses = []
    records = tracecheck._records

    def counted(lines):
        parses.append(lines)
        return records(lines)
    monkeypatch.setattr(tracecheck, "_records", counted)
    audits(lines, "proposed", 2, 6)
    assert len(parses) == 1


@pytest.mark.parametrize("scheme", ["legacy", "proposed"])
def test_a_kept_fold_audits_as_a_fresh_parse(scheme):
    res = traced_run(scheme, 3, seed=7)
    lines = res.trace_lines
    got = audits(lines, scheme, 3, 7)
    assert got == audits(list(lines), scheme, 3, 7)  # kind counts in key order
    assert got[0] == [] and got[1] == summary_row(res.summary)
    assert load_records(lines) is lines.fold  # kept by the first audit
    assert audits(lines, scheme, 3, 7) == got


def test_a_list_edited_between_calls_is_read_again():
    lines = synthetic(*regular_tx(1, 0, 50, "clean"))
    assert list(load_records(lines).txs) == [1]
    lines.extend(synthetic(*regular_tx(2, 60, 90, "clean")))
    assert list(load_records(lines).txs) == [1, 2]
    assert list(count_kinds(lines).items()) == [("tx_start", 2), ("tx_end", 2)]


def test_a_fold_that_raises_is_not_kept():
    good = synthetic(*regular_tx(1, 0, 50, "clean"), (60, "mystery", {}))
    lines = trace_lines(good + synthetic(*regular_tx(2, 70, 90, "clean"))[1:])
    for _ in range(2):
        for parse in (load_records, count_kinds):
            with pytest.raises(ValueError, match=r"^line 4: malformed record "
                                                 r"\(KeyError: 2\)"):
                parse(lines)
            assert lines.fold is None
    # count_kinds is the fold's count, a kind it otherwise ignores included
    trace = load_records(trace_lines(good))
    assert trace.kinds == count_kinds(good) == {"tx_start": 1, "tx_end": 1,
                                                "mystery": 1}


@pytest.mark.parametrize("tone_open", [False, True])
def test_no_audit_changes_a_kept_trace(tone_open):
    res = traced_run("proposed", 3, seed=2)
    tail = [json.dumps(dict(t=CFG.sim_duration - 1, kind="tone_on", sta="zz",
                            fast=True))] if tone_open else []
    lines = trace_lines(list(res.trace_lines) + tail)
    trace = load_records(lines)
    assert (trace.tone_open is not None) == tone_open and trace.spans
    kept = copy.deepcopy(trace)
    audits(lines, "proposed", 3, 2)
    txs = collect_transmissions(trace, CFG.sim_duration)
    with pytest.raises(AttributeError):
        txs[0].end = txs[0].start
    spans = tone_spans(trace, CFG.sim_duration)
    spans.append((0, 1))
    assert load_records(lines) is trace
    assert trace == kept


# -- the chunked parse against a line-by-line reference ---------------------------

def per_line_records(lines):
    """The reference parse: json.loads of each non-blank line, in order."""
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            try:
                rec = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed record "
                                 f"({type(exc).__name__}: {exc})") from exc
            yield lineno, rec


def parsed(open_lines):
    """load_records' Trace and count_kinds' counts, or each one's error."""
    out = []
    for parse in (load_records, count_kinds):
        try:
            out.append(parse(open_lines()))
        except ValueError as exc:
            out.append(str(exc))
    return out


def assert_parsed_as_reference(lines, monkeypatch):
    """Both parses of lines (a list, or a function opening them) equal the
    reference's; returns them."""
    open_lines = lines if callable(lines) else lambda: lines
    got = parsed(open_lines)
    with monkeypatch.context() as m:
        m.setattr(tracecheck, "_records", per_line_records)
        want = parsed(open_lines)
    assert got == want
    if not callable(lines) and not any("\n" in line for line in lines):
        # a run's TraceLines holds no line with a newline; one is built
        # afresh for each parse, so that no kept fold stands in for one
        assert parsed(lambda: trace_lines(lines)) == got
    return got


ON = '{"t":1,"kind":"tone_on","sta":"x","fast":true}'
OFF = '{"t":2,"kind":"tone_off","sta":"x","reason":"delivered"}'


@pytest.fixture(scope="module")
def real_lines():
    # a list, parsed on every call: a run's TraceLines would keep its first
    # fold, and a test that patches the parse would then read no line
    lines = list(traced_run("proposed", 2, seed=3).trace_lines)
    assert len(lines) > 2 * tracecheck.CHUNK
    return lines


def test_real_traces_take_the_one_parse_per_chunk(real_lines, monkeypatch):
    def per_line(*_):
        raise AssertionError("a chunk of a real trace was parsed line by line")
    monkeypatch.setattr(tracecheck, "_parse_lines", per_line)
    load_records(real_lines)
    assert sum(count_kinds(real_lines).values()) == len(real_lines)
    lines = trace_lines(real_lines)  # a run's trace takes the same path
    assert sum(count_kinds(lines).values()) == len(real_lines)
    assert load_records(lines) is lines.fold


def test_a_string_across_a_seam_is_named_as_a_list_names_it():
    # Joined by "," the two lines read as one record: the guard counts the
    # seam's braces, and only the newline of the ",\n" seam, which a JSON
    # string cannot hold, makes the one json.loads fail.
    lines = ['{"a":"}', '{"}']
    assert json.loads("[" + ",".join(lines) + "]") == [{"a": "},{"}]
    for given in (lines, trace_lines(lines)):
        for parse in (load_records, count_kinds):
            with pytest.raises(ValueError, match=r"^line 1: malformed record "
                                                 r"\(JSONDecodeError"):
                parse(given)


def test_a_bad_record_after_blank_and_padded_lines_names_its_line(real_lines):
    lines = list(real_lines[:300])  # over two blocks of a TraceLines
    lines[3:3] = ["", "   "]
    lines[10] = " " + lines[10] + "\t"
    lines[270] = lines[270][:-1]
    want = r"^line 271: malformed record \(JSONDecodeError"
    for given in (lines, trace_lines(lines)):
        for parse in (load_records, count_kinds):
            with pytest.raises(ValueError, match=want):
                parse(given)
    # the same lines, but the last one whole, parse as the list does
    lines[270] = real_lines[268]
    assert load_records(trace_lines(lines)) == load_records(lines)


def test_lines_as_many_as_their_elements_can_still_be_malformed(monkeypatch):
    # a record split over two lines, then two records on one line
    lines = ['{"t":1,"kind":"tone_on","sta":"x"', '"fast":true}', OFF + "," + ON]
    assert len(json.loads("[" + ",".join(lines) + "]")) == len(lines)
    assert assert_parsed_as_reference(lines, monkeypatch) == [
        "line 1: malformed record (JSONDecodeError: Expecting ',' delimiter: "
        "line 1 column 34 (char 33))"] * 2


@pytest.mark.parametrize("lines", [
    # a string that spans lines
    ['{"t":1,"kind":"tone_on","sta":"x},{"', '"}', '{}, {}'],
    # a line that holds a newline and two records, the braces and seams of
    # the chunk still balanced by the two lines after it
    [ON + ",\n" + OFF, '{"t":3,"kind":"tone_on","sta":"y"', '"fast":true}'],
    # values that are not objects
    [ON, "5", OFF], [ON, "[]"], [ON, '"{}"'],
    # braces inside strings
    ['{"t":1,"kind":"tone_on","sta":"}{"}', '{"t":2,"kind":"tone_off","sta":"}{",'
     '"reason":"delivered"}'],
    ['{"t":1,"kind":"tone_on","sta":"x","fast":true,"k":"},\\n{"}', OFF],
])
def test_lines_that_are_not_one_plain_object_each_parse_as_the_reference(
        lines, monkeypatch):
    assert_parsed_as_reference(lines, monkeypatch)


def test_a_chunk_too_deep_for_one_parse_is_parsed_line_by_line(real_lines,
                                                               monkeypatch):
    # Inside the chunk's array a record is one level deeper, so a line nested
    # just within the interpreter's limit parses alone but not in the chunk.
    loads = json.loads

    def array_too_deep(text):
        if text.startswith("["):
            raise RecursionError("maximum recursion depth exceeded")
        return loads(text)
    want = [load_records(real_lines), count_kinds(real_lines)]
    monkeypatch.setattr(json, "loads", array_too_deep)
    assert assert_parsed_as_reference(real_lines, monkeypatch) == want


def test_blank_and_padded_lines_parse_as_the_reference(real_lines, monkeypatch):
    lines = list(real_lines[:50])
    lines[3:3] = ["", "   ", "\t", "\u00a0", "\r"]
    lines[10] = "  " + lines[10] + " \t\r\n"
    lines[20] = "\n" + lines[20]
    got = assert_parsed_as_reference(lines, monkeypatch)
    assert got == [load_records(real_lines[:50]), count_kinds(real_lines[:50])]
    # json.loads does not skip every space that str.strip does
    lines[30] = "\u00a0" + lines[30]
    got = assert_parsed_as_reference(lines, monkeypatch)
    assert got == ["line 31: malformed record (JSONDecodeError: Expecting value: "
                   "line 1 column 1 (char 0))"] * 2


@pytest.mark.parametrize("position", ["first", "CHUNK", "CHUNK+1"])
def test_a_malformed_line_at_a_chunk_edge_is_named(real_lines, position,
                                                   monkeypatch):
    i = {"first": 0, "CHUNK": tracecheck.CHUNK - 1,
         "CHUNK+1": tracecheck.CHUNK}[position]
    lines = list(real_lines)
    lines[i] = lines[i][:-3]
    got = assert_parsed_as_reference(lines, monkeypatch)
    assert got[0] == got[1]
    assert got[0].startswith(f"line {i + 1}: malformed record (JSONDecodeError")


def test_a_fault_in_a_record_comes_before_a_later_json_error(real_lines,
                                                             monkeypatch):
    lines = list(real_lines[:40])
    lines[5] = '{"t":5,"kind":"tx_end","tx":999999,"outcome":"clean"}'
    lines[30] = lines[30][:-1]
    got = assert_parsed_as_reference(lines, monkeypatch)
    assert got == ["line 6: malformed record (KeyError: 999999)"] * 2


def test_a_file_parses_as_its_list_of_lines(real_lines, tmp_path, monkeypatch):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(real_lines) + "\n")
    files = []

    def open_file():
        files.append(open(path, encoding="utf-8"))
        return files[-1]
    try:
        got = assert_parsed_as_reference(open_file, monkeypatch)
        assert got == [load_records(real_lines), count_kinds(real_lines)]
        # the reference names the column after the newline that json.loads saw
        broken = list(real_lines)
        broken[tracecheck.CHUNK + 7] = broken[tracecheck.CHUNK + 7][:-1]
        path.write_text("\n".join(broken) + "\n")
        got = assert_parsed_as_reference(open_file, monkeypatch)
        assert got[0].startswith(f"line {tracecheck.CHUNK + 8}: malformed record")
        assert "line 2 column 1" in got[0]
    finally:
        for fh in files:
            fh.close()


def test_joined_split_and_truncated_lines_parse_as_the_reference(real_lines,
                                                                 monkeypatch):
    monkeypatch.setattr(tracecheck, "CHUNK", 16)  # many chunks, many edges
    rng = random.Random(2026)
    base = list(real_lines[:200])
    faults = 0
    for _ in range(300):
        lines = list(base)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines) - 1)
            cut = rng.randrange(len(lines[i]) + 1)
            op = rng.choice(("join", "split", "truncate", "blank", "pad"))
            if op == "join":
                lines[i:i + 2] = [lines[i] + rng.choice(("", ",", ", ", ",\n"))
                                  + lines[i + 1]]
            elif op == "split":
                lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
            elif op == "truncate":
                lines[i] = lines[i][:cut]
            elif op == "blank":
                lines.insert(i, rng.choice(("", " ", "\t", "\u00a0")))
            else:
                lines[i] = rng.choice((" ", "\t", "\u00a0")) + lines[i]
        with monkeypatch.context() as m:
            got = assert_parsed_as_reference(lines, m)
        faults += isinstance(got[0], str)
    assert faults > 200  # most mutations break a record


# -- command line ---------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


def tracecheck_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "btwifi.tracecheck", *args],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    """A clean detection-delay-3 trace, its scenario file, and a copy of the
    trace with regular data put inside a tone."""
    cfg = ScenarioConfig(n_regular=3, sim_duration=1_000_000, warmup=100_000,
                         detection_delay=3)
    lines = list(traced_run("proposed", 2, seed=1, cfg=cfg).trace_lines)
    d = tmp_path_factory.mktemp("traces")
    scenario = d / "scenario.cfg"
    scenario.write_text("[run]\nsim_duration_us = 1000000\nwarmup_us = 100000\n"
                        "[phy]\ndetection_delay_us = 3\n")
    clean = d / "clean.jsonl"
    clean.write_text("\n".join(lines) + "\n")
    t = next(json.loads(line)["t"] for line in lines
             if json.loads(line)["kind"] == "tone_on")
    bad = d / "bad.jsonl"
    bad.write_text("\n".join(sorted(
        lines + synthetic(*regular_tx(999999, t + 5, t + 45, "collided")),
        key=lambda line: json.loads(line)["t"])) + "\n")
    return scenario, clean, bad


def test_cli_exits_0_on_clean_traces(trace_files):
    scenario, clean, _ = trace_files
    out = tracecheck_cli("--config", str(scenario), str(clean), str(clean))
    assert (out.returncode, out.stdout, out.stderr) == (0, "", "")


def test_cli_exits_1_and_prints_each_problem(trace_files):
    scenario, clean, bad = trace_files
    out = tracecheck_cli("--config", str(scenario), str(clean), str(bad))
    assert out.returncode == 1
    assert out.stdout.splitlines() == [
        f"{bad}: {p}" for p in scan_trace(bad.read_text().splitlines(),
                                           1_000_000, 100_000, 3)]
    assert "tx 999999: regular data on air inside tone interval" in out.stdout


def test_cli_exits_2_on_unreadable_or_malformed_traces(trace_files, tmp_path):
    scenario, clean, bad = trace_files
    missing = tmp_path / "missing.jsonl"
    out = tracecheck_cli("--config", str(scenario), str(missing), str(bad))
    assert out.returncode == 2
    assert str(missing) in out.stderr
    assert out.stdout.startswith(f"{bad}: ")  # later files are still audited

    lines = clean.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if '"tx_start"' in line)
    k2 = next(i for i, line in enumerate(lines) if '"tx_start"' in line and i > k)
    j = next(j for j, line in enumerate(lines) if '"tx_end"' in line)
    a = next(a for a, line in enumerate(lines) if '"arrival"' in line)
    on = next(i for i, line in enumerate(lines) if '"tone_on"' in line)
    off = next(i for i, line in enumerate(lines) if '"tone_off"' in line)
    d = next(i for i, line in enumerate(lines) if '"delivered"' in line)
    arrived = {rec["frame"]: rec["t"] for rec in map(json.loads, lines[:d])
               if rec["kind"] == "arrival"}
    early = arrived[json.loads(lines[d])["frame"]] - 1
    first_tx = json.loads(lines[k])["tx"]

    def at_early(kind):  # the first delivered frame's record, as `kind`, too early
        return json.dumps(dict(json.loads(lines[d]), kind=kind, t=early))
    for i, broken, what in (
            (k, lines[k][:-5], "JSONDecodeError"),
            (k, lines[k].replace('"dur":', '"d":'), "KeyError: 'dur'"),
            (k, json.dumps(dict(json.loads(lines[k]), t="0")), "TypeError"),
            (k, '{"t": 5, "kind": "tone_off"}', "tone_off without"),
            (k, '{"t": 5, "kind": "delivered", "frame": "f?"}', "KeyError: 'f?'"),
            (k, json.dumps(dict(json.loads(lines[k]), ftype="beacon")),
             "unknown ftype 'beacon'"),
            (k, '{"t": 5, "tx": 1}', "KeyError: 'kind'"),
            # the fold counts every kind, and a list cannot be a dict key
            (k, '{"t": 5, "kind": []}', "unhashable type: 'list'"),
            (k, json.dumps(dict(json.loads(lines[k]), dur=0)),
             f"tx {first_tx} has duration 0, below 1"),
            (k, json.dumps(dict(json.loads(lines[k]), dur=-50)),
             f"tx {first_tx} has duration -50, below 1"),
            (j, json.dumps(dict(json.loads(lines[j]), outcome="weird")),
             "unknown outcome 'weird'"),
            (j, json.dumps(dict(json.loads(lines[j]), tx=999999)),
             "KeyError: 999999"),
            # a record repeated, or a later transmission relabelled with an
            # earlier tx id, would overwrite the earlier record
            (k + 1, lines[k], f"tx {first_tx} already started"),
            (k2, json.dumps(dict(json.loads(lines[k2]), tx=first_tx)),
             f"tx {first_tx} already started"),
            (j + 1, lines[j], "already ended"),
            (a + 1, lines[a], "arrived while still open"),
            # a record that goes back in time within one tone span or frame
            (off, json.dumps(dict(json.loads(lines[off]),
                                  t=json.loads(lines[on])["t"] - 1)),
             "earlier than the start"),
            (d, at_early("delivered"), f"delivered at {early}, before its arrival"),
            (d, at_early("dropped"), f"dropped at {early}, before its arrival"),
            (d, at_early("preempted"), f"preempted at {early}, before its arrival"),
            # a preempted frame stays open, but it must be one
            (k, '{"t": 5, "kind": "preempted", "sta": "r0", "frame": "nope"}',
             "KeyError: 'nope'"),
            # nested deeper than the interpreter's recursion limit
            (k, "[" * 100_000 + "]" * 100_000, "RecursionError")):
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_text("\n".join(lines[:i] + [broken] + lines[i + 1:]))
        out = tracecheck_cli(str(malformed))
        assert out.returncode == 2, what
        assert f"{malformed}: line {i + 1}: malformed record" in out.stderr
        assert what in out.stderr and "Traceback" not in out.stderr
        # the replay and count_kinds parse through the same fold, so they
        # fail the same way
        given = malformed.read_text().splitlines()
        with pytest.raises(ValueError, match=f"^line {i + 1}: malformed record"):
            replay_csv_row(given, "proposed", 2, 3, 1, 1_000_000, 100_000,
                           CFG.regular.payload_bits)
        with pytest.raises(ValueError, match=f"^line {i + 1}: malformed record"):
            count_kinds(given)


def test_cli_exits_2_without_a_verdict(trace_files, tmp_path):
    # 2 is no verdict: a usage error or a scenario that cannot be used
    _, clean, _ = trace_files
    invalid = tmp_path / "invalid.cfg"
    invalid.write_text("[run]\nwarmup_us = -1\n")
    not_utf8 = tmp_path / "not_utf8.cfg"
    not_utf8.write_bytes(b"\xff\xfe[run]\nseeds = 1\n")
    for scenario in (invalid, not_utf8, tmp_path / "missing.cfg"):
        out = tracecheck_cli("--config", str(scenario), str(clean))
        assert (out.returncode, out.stdout) == (2, ""), scenario
        assert out.stderr.startswith("tracecheck: config error: "), scenario
        assert "Traceback" not in out.stderr
    out = tracecheck_cli("--bogus", "x")
    assert (out.returncode, out.stdout) == (2, "")
    assert "unrecognized arguments: --bogus" in out.stderr
    out = tracecheck_cli("--help")
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("usage: python -m btwifi.tracecheck")
