"""Self-tests of the benchmark, at tiny workload sizes.

    python3 -m pytest -q bench/selftest.py

The file name keeps it out of the repository's own test run; pytest collects
it when it is named on the command line.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from btwifi import medium, sweep  # noqa: E402

TINY_US = 200_000
JOBS = min(2, workloads.nproc())
NAMES = sorted(workloads.WORKLOADS)
with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], sim_duration_us=TINY_US)


def tiny_rep(name: str, reference=None) -> workloads.Rep:
    w = tiny(name)
    return workloads.run_rep(w, w.seeds(1), JOBS, reference)


@pytest.fixture(scope="module")
def traced_tiny():
    return {name: run.traced(tiny(name), 1, 0, JOBS, None) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_is_clean_and_repeatable(name):
    first = tiny_rep(name)
    assert first.failures == []
    assert None not in first.rows and first.rows
    again = tiny_rep(name, reference=first.fingerprint())
    assert again.failures == []
    assert again.attempted == first.attempted


@pytest.mark.parametrize("name", NAMES)
def test_flipped_byte_in_a_row_is_a_failed_operation(name, monkeypatch):
    reference = tiny_rep(name).fingerprint()
    real = sweep.render_csv

    def flipped(summaries):
        header, _, rows = real(summaries).partition("\n")
        return f"{header}\n{chr(ord(rows[0]) ^ 1)}{rows[1:]}" if rows else header + "\n"

    monkeypatch.setattr(sweep, "render_csv", flipped)
    rep = tiny_rep(name, reference=reference)
    assert len(rep.failures) / rep.attempted > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_rows_equal_untraced_rows(name):
    plain = tiny_rep(name)
    sp, rep = run._spanned_rep(tiny(name), 1, JOBS, None)
    assert rep.rows == plain.rows
    assert rep.csv == plain.csv
    assert sp.stats["config.parse_config"].calls == 1


def test_traced_run_reports_every_per_layer_metric(traced_tiny):
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    for name, (metrics, _, attempted, failures, _) in traced_tiny.items():
        assert failures == [], name
        assert attempted > 0
        assert list(metrics) == names
        assert None not in metrics.values(), name
        assert metrics["bench.trace_overhead"] > 0


def test_layer_split(traced_tiny):
    m = {name: result[0] for name, result in traced_tiny.items()}
    for name in ("edca_dense", "busytone_ladder", "sweep_parallel"):
        assert all(v == 0 for k, v in m[name].items()
                   if k.startswith(("tracecheck.", "trace."))), name
    assert m["trace_audit"]["tracecheck.scan_trace.self_s"] > 0
    assert m["edca_dense"]["engine.schedule_per_tx"] > m["busytone_ladder"]["engine.schedule_per_tx"]
    assert m["edca_dense"]["medium.abort_transmission.calls"] == 0
    assert m["busytone_ladder"]["medium.abort_transmission.calls"] > 0
    assert m["sweep_parallel"]["sweep.parallel_efficiency"] > 0


def _originals():
    return {(owner, attr): vars(owner)[attr]
            for owner, attr, _ in spans.targets() if owner is not None}


def test_wrappers_are_removed_after_a_traced_run():
    before = _originals()
    run.traced(tiny("busytone_ladder"), 1, 0, JOBS, None)
    after = _originals()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_are_removed_when_the_run_raises(monkeypatch):
    before = _originals()
    monkeypatch.setattr(workloads, "run_rep", lambda *a, **k: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run._spanned_rep(tiny("edca_dense"), 1, JOBS, None)
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in before.items())


def test_missing_function_is_reported_absent(monkeypatch):
    # The legacy scheme never aborts, so the run works without the method.
    monkeypatch.delattr(medium.Medium, "abort_transmission")
    metrics, _, _, failures, _ = run.traced(tiny("edca_dense"), 1, 0, JOBS, None)
    assert failures == []
    assert metrics["medium.abort_transmission.calls"] is None
    assert metrics["engine.schedule.calls"] > 0
    assert "abort_transmission" not in vars(medium.Medium)


def test_jobs_above_nproc_is_refused():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "sweep_parallel", "--jobs", str(workloads.nproc() + 1)])
    assert exc.value.code == 2


def test_command_prints_the_end_to_end_metrics():
    out = subprocess.run(
        [sys.executable, run.__file__, "--workload", "busytone_ladder", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=workloads.ROOT).stdout
    result = json.loads(out.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())
