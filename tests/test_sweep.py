import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from btwifi.cli import main
from btwifi.config import ScenarioConfig
from btwifi.engine import ContractViolation
from btwifi.metrics import CSV_COLUMNS, CSV_HEADER, RunSummary, summary_row
from btwifi.simulation import run_single
from btwifi.sweep import (expand_grid, render_csv, run_sweep, trace_filename,
                          write_outputs)
from test_pinned_grid import CONFIGS, PINS
from test_simulation import cyclic_garbage

QUICK = ScenarioConfig(n_regular=2, m_list=(0, 1), schemes=("legacy", "proposed"),
                       seeds=(1, 2), sim_duration=1_000_000, warmup=100_000)


def test_default_grid_is_180_runs():
    assert len(expand_grid(ScenarioConfig())) == 2 * 9 * 10


def test_grid_is_sorted_by_scheme_m_seed():
    grid = expand_grid(QUICK)
    assert grid == sorted(grid)
    assert grid[0] == ("legacy", 0, 1)
    assert len(grid) == 8


def test_csv_shape_and_header():
    summaries = run_sweep(QUICK)
    csv_text = render_csv(summaries)
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 8
    # every row parses into the same number of fields as the header
    width = len(CSV_HEADER.split(","))
    assert all(len(line.split(",")) == width for line in lines[1:])


def test_run_summary_holds_exactly_the_csv_columns():
    # a field no column writes would be computed and returned but reach no output
    assert {f.name for f in fields(RunSummary)} == {attr for _, attr in CSV_COLUMNS}


def test_m_zero_rows_have_empty_delay_fields():
    summaries = run_sweep(QUICK)
    rows = [summary_row(s) for s in summaries if s.m_urllc == 0]
    assert rows
    for row in rows:
        fields = row.split(",")
        assert fields[4] == "" and fields[5] == ""  # delay mean / p99
        assert fields[6] == "0"  # urllc_delivered


def test_sweep_is_deterministic_byte_for_byte():
    a = render_csv(run_sweep(QUICK))
    b = render_csv(run_sweep(QUICK))
    assert a == b


def test_single_point_rerun_reproduces_its_row():
    summaries = run_sweep(QUICK)
    target = next(s for s in summaries if (s.scheme, s.m_urllc, s.seed) ==
                  ("proposed", 1, 2))
    lone = run_single(QUICK.run_config("proposed", 1, 2)).summary
    assert summary_row(lone) == summary_row(target)


def test_parallel_execution_matches_serial(monkeypatch):
    # a pool of two even where this process may use only one CPU
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = render_csv(run_sweep(QUICK))
    parallel = render_csv(run_sweep(QUICK, jobs=2))
    assert serial == parallel


def test_pool_size_is_capped_by_points_and_cpus(monkeypatch):
    import btwifi.sweep as sweep_mod

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # run_sweep imports the pool class only when it opens one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    two_points = ScenarioConfig(n_regular=1, m_list=(1,), schemes=("legacy",),
                                seeds=(1, 2), sim_duration=100_000, warmup=0)
    # the CPUs this process may use, not the host's: taskset can narrow them
    monkeypatch.setattr(sweep_mod.os, "sched_getaffinity",
                        lambda pid: set(range(8)), raising=False)
    run_sweep(two_points, jobs=3)
    monkeypatch.setattr(sweep_mod.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    run_sweep(replace(two_points, seeds=(1, 2, 3, 4)), jobs=3)
    assert sizes == [2, 2]


def test_importing_the_package_loads_no_worker_pool():
    # run_sweep imports the pool only to open one; a lone run or a serial
    # sweep never pays for it
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; before = set(sys.modules); "
            "import btwifi.simulation, btwifi.sweep; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.partition('.')[0] in ('concurrent', 'multiprocessing')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_csv_numbers_are_plain_decimal():
    summaries = run_sweep(ScenarioConfig(n_regular=1, m_list=(1,),
                                         schemes=("proposed",), seeds=(1,),
                                         sim_duration=1_000_000, warmup=0))
    for row in render_csv(summaries).strip().split("\n")[1:]:
        assert "e" not in row.lower().replace("proposed", "").replace("legacy", "")


def write_quick_cfg(path, seeds="1"):
    path.write_text(f"""
[run]
n_regular = 2
m_urllc = 1
schemes = proposed
seeds = {seeds}
sim_duration_us = 1000000
warmup_us = 100000
""", encoding="utf-8")


def test_cli_end_to_end(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    write_quick_cfg(cfg_file)
    out = tmp_path / "summary.csv"
    rc = main(["--config", str(cfg_file), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER and len(lines) == 2
    assert lines[1].startswith("proposed,1,2,1,")


def test_cli_flags_restrict_the_grid(tmp_path):
    out = tmp_path / "summary.csv"
    rc = main(["--out", str(out), "--scheme", "legacy", "--m", "1",
               "--seed", "3"])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("legacy,1,10,3,")


def test_cli_row_reproduction_matches_full_sweep(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text("""
[run]
n_regular = 2
m_urllc = 1, 2
schemes = legacy, proposed
seeds = 1, 2
sim_duration_us = 500000
warmup_us = 50000
""", encoding="utf-8")
    full = tmp_path / "full.csv"
    assert main(["--config", str(cfg_file), "--out", str(full)]) == 0
    one = tmp_path / "one.csv"
    assert main(["--config", str(cfg_file), "--out", str(one),
                 "--scheme", "proposed", "--m", "2", "--seed", "2"]) == 0
    wanted = [line for line in full.read_text().splitlines()
              if line.startswith("proposed,2,")
              and line.split(",")[3] == "2"]
    assert one.read_text().splitlines()[1:] == wanted


def test_cli_bad_config_exits_1(tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    out = tmp_path / "o.csv"
    # an invalid value, and a file that is not UTF-8 text
    for content in ("[regular]\ndata_airtime_us = 9999\n".encode(),
                    b"\xff\xfe[run]\nseeds = 1\n"):
        cfg_file.write_bytes(content)
        rc = main(["--config", str(cfg_file), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("simulate: config error: ")
        assert not out.exists()


def exit_code(argv):
    """main's return value, or the code it exits with from argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [["--m", "abc"], ["--scheme", "nope"],
                                  ["--jobs", "x"], ["--bogus"], ["--jobs", "0"]])
def test_cli_usage_error_exits_1(argv, tmp_path, capsys):
    # Exit 2 is kept for a failed run, so argparse's own 2 is not used.
    out = tmp_path / "o.csv"
    assert exit_code(["--out", str(out), *argv]) == 1
    assert "simulate: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_help_exits_0(capsys):
    assert exit_code(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: simulate")


def test_cli_missing_config_file_exits_1(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg")]) == 1


def no_run_may_start(monkeypatch):
    """Make any run fail its test: an output error must be found first."""
    def run_single_stand_in(run_cfg):
        pytest.fail(f"a run started before the output error: {run_cfg.seed}")

    monkeypatch.setattr("btwifi.sweep.run_single", run_single_stand_in)


def test_cli_unwritable_output_exits_1(monkeypatch, tmp_path, capsys):
    no_run_may_start(monkeypatch)
    cfg_file = tmp_path / "scenario.cfg"
    write_quick_cfg(cfg_file)
    rc = main(["--config", str(cfg_file),
               "--out", str(tmp_path / "no" / "such" / "dir" / "o.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("simulate: cannot write output: ")


def test_cli_unusable_trace_dir_exits_1(monkeypatch, tmp_path, capsys):
    # A regular file as the directory, and a directory where the second
    # point's trace file must go: both fail even for root, before any run,
    # and neither may leave a summary or the first point's trace.
    no_run_may_start(monkeypatch)
    cfg_file = tmp_path / "scenario.cfg"
    write_quick_cfg(cfg_file, seeds="1, 2")
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    blocked = tmp_path / "traces"
    blocker = blocked / trace_filename("proposed", 2, 1, 2)
    blocker.mkdir(parents=True)
    for trace_dir in (not_a_dir, blocked):
        out = tmp_path / "o.csv"
        rc = main(["--config", str(cfg_file), "--out", str(out),
                   "--trace-dir", str(trace_dir)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("simulate: cannot write output: ")
        assert "Traceback" not in err
        assert not out.exists()
    assert list(blocked.iterdir()) == [blocker]


@pytest.mark.parametrize("case", ["curves dir is a file", "no out dir",
                                  "second curve file blocked"])
def test_cli_failed_output_write_leaves_no_outputs(case, monkeypatch, tmp_path, capsys):
    # The summary CSV or a curve file cannot be written: that is found
    # before any run, and no summary, trace or curve file may be left.
    no_run_may_start(monkeypatch)
    cfg_file = tmp_path / "scenario.cfg"
    write_quick_cfg(cfg_file, seeds="1, 2")
    out, curves = tmp_path / "o.csv", tmp_path / "curves"
    if case == "curves dir is a file":
        curves.write_text("")
    elif case == "no out dir":
        out = tmp_path / "nodir" / "o.csv"
    else:  # a directory where the second curve file must go
        (curves / "regular_throughput_bps_proposed.dat").mkdir(parents=True)
    trace_dir = tmp_path / "traces"
    rc = main(["--config", str(cfg_file), "--out", str(out),
               "--trace-dir", str(trace_dir), "--curves-dir", str(curves)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("simulate: cannot write output: ")
    assert not out.exists()
    assert list(trace_dir.iterdir()) == []
    if case == "second curve file blocked":  # the delay curve was opened
        assert [p.name for p in curves.iterdir()] == \
            ["regular_throughput_bps_proposed.dat"]


@pytest.mark.parametrize("flag, name", [
    ("--trace-dir", trace_filename("proposed", 2, 1, 1)),
    ("--curves-dir", "urllc_delay_mean_us_proposed.dat")])
def test_cli_two_outputs_on_one_file_exit_1_untouched(flag, name, tmp_path, capsys):
    # --out names a file that a trace or curve file would overwrite: no run
    # starts, and the file already there is neither rewritten nor removed.
    cfg_file = tmp_path / "scenario.cfg"
    write_quick_cfg(cfg_file)
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    (outputs / name).write_text("kept\n")
    # a path that differs in spelling but resolves to the same file
    out = outputs / ".." / "outputs" / name
    assert main(["--config", str(cfg_file), "--out", str(out),
                 flag, str(outputs)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("simulate: cannot write output: ") and name in err
    assert [p.name for p in outputs.iterdir()] == [name]
    assert (outputs / name).read_text() == "kept\n"


def test_cli_run_failure_leaves_no_traces(monkeypatch, tmp_path):
    import btwifi.sweep as sweep_mod

    real_run_single = sweep_mod.run_single
    seen = []

    def fail_second_point(run_cfg):
        seen.append(run_cfg.seed)
        if len(seen) == 2:
            raise ContractViolation("synthetic failure")
        return real_run_single(run_cfg)

    monkeypatch.setattr(sweep_mod, "run_single", fail_second_point)
    cfg_file = tmp_path / "scenario.cfg"
    write_quick_cfg(cfg_file, seeds="1, 2")
    out = tmp_path / "o.csv"
    trace_dir = tmp_path / "traces"
    rc = main(["--config", str(cfg_file), "--out", str(out),
               "--trace-dir", str(trace_dir)])
    assert rc == 2
    assert seen == [1, 2]
    assert list(trace_dir.iterdir()) == []
    assert not out.exists()


def test_cli_writes_traces_when_asked(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    write_quick_cfg(cfg_file)
    trace_dir = tmp_path / "traces"
    rc = main(["--config", str(cfg_file), "--out", str(tmp_path / "s.csv"),
               "--trace-dir", str(trace_dir)])
    assert rc == 0
    files = sorted(trace_dir.glob("trace_*.jsonl"))
    assert len(files) == 1
    first = json.loads(files[0].read_text().splitlines()[0])
    assert "t" in first and "kind" in first


def test_trace_files_hold_each_line_and_a_newline(tmp_path):
    cfg = replace(QUICK, seeds=(1,))
    empty = replace(cfg, n_regular=0, m_list=(1,), schemes=("proposed",),
                    sim_duration=10, warmup=0, urllc_mean_interarrival=10**9)
    for c in (cfg, empty):
        run_sweep(c, trace_dir=str(tmp_path))
        for scheme, m, seed in expand_grid(c):
            lines = run_single(c.run_config(scheme, m, seed, trace=True)).trace_lines
            path = tmp_path / trace_filename(scheme, c.n_regular, m, seed)
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    # a run that writes no record leaves a file of one blank line
    assert (tmp_path / trace_filename("proposed", 0, 1, 1)).read_bytes() == b"\n"


def test_a_traced_sweep_leaves_no_reference_cycle_and_keeps_its_pinned_bytes(tmp_path):
    config = "detection_delay_3"
    cfg = replace(CONFIGS[config], m_list=(1, 5), seeds=(1,))
    out, trace_dir = tmp_path / "s.csv", tmp_path / "traces"
    assert cyclic_garbage(lambda: write_outputs(cfg, str(out), trace_dir=str(trace_dir))) == 0
    rows = out.read_text().splitlines()[1:]
    for row, (scheme, m, seed) in zip(rows, expand_grid(cfg), strict=True):
        trace = (trace_dir / trace_filename(scheme, cfg.n_regular, m, seed)).read_text()
        assert trace.endswith("\n")
        assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in (row, trace[:-1])) \
            == PINS[config, scheme, m]


def test_cli_curve_files(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text("""
[run]
n_regular = 2
m_urllc = 1, 2
schemes = proposed
seeds = 1, 2
sim_duration_us = 500000
warmup_us = 50000
""", encoding="utf-8")
    curves = tmp_path / "curves"
    rc = main(["--config", str(cfg_file), "--out", str(tmp_path / "s.csv"),
               "--curves-dir", str(curves)])
    assert rc == 0
    delay = (curves / "urllc_delay_mean_us_proposed.dat").read_text()
    rows = [line.split() for line in delay.splitlines() if not line.startswith("#")]
    assert [r[0] for r in rows] == ["1", "2"]
    thr = (curves / "regular_throughput_bps_proposed.dat").read_text()
    assert len(thr.splitlines()) == 3


def test_a_sweep_without_urllc_delays_rewrites_the_delay_curve(tmp_path):
    # A second sweep into the same directory must not leave the first
    # sweep's delay curve behind when it has no delay to write.
    curves = tmp_path / "curves"
    for m in (1, 0):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(f"[run]\nn_regular = 1\nm_urllc = {m}\n"
                            "schemes = proposed\nseeds = 1\n"
                            "sim_duration_us = 200000\nwarmup_us = 0\n",
                            encoding="utf-8")
        assert main(["--config", str(cfg_file), "--out", str(tmp_path / "s.csv"),
                     "--curves-dir", str(curves)]) == 0
    delay = (curves / "urllc_delay_mean_us_proposed.dat").read_text()
    assert delay == "# M  urllc_delay_mean_us (proposed, mean over seeds)\n"
