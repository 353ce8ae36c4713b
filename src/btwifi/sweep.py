"""Sweep orchestration and result files.

A sweep is the full (scheme x M x seed) grid from a scenario config.  Each
grid point is one self-contained run; points may execute on a worker pool,
and the summary CSV is identical regardless of execution order because
rows are a pure function of (config, scheme, M, seed) and get sorted
before writing.
"""

from __future__ import annotations

import contextlib
import os
from multiprocessing import get_context
from pathlib import Path
from typing import Optional

from .config import ScenarioConfig
from .metrics import RunSummary
from .simulation import run_single

CSV_HEADER = ("scheme,M,N,seed,urllc_delay_mean_us,urllc_delay_p99_us,"
              "urllc_delivered,urllc_dropped,urllc_collided,"
              "regular_throughput_bps,regular_delivered,regular_preempted,"
              "channel_busy_fraction,sim_duration_us,warmup_us")


class SweepError(RuntimeError):
    """A run aborted; carries the offending grid point."""

    def __init__(self, scheme: str, m: int, seed: int, cause) -> None:
        self.point = (scheme, m, seed)
        self._cause_text = str(cause)
        super().__init__(f"run (scheme={scheme}, M={m}, seed={seed}) failed: {cause}")

    def __reduce__(self):
        # keeps the grid point intact across the worker-pool pickle boundary
        return (SweepError, (*self.point, self._cause_text))


def expand_grid(cfg: ScenarioConfig) -> list[tuple[str, int, int]]:
    """All (scheme, M, seed) points, sorted the way rows are emitted."""
    return sorted((scheme, m, seed)
                  for scheme in cfg.schemes
                  for m in cfg.m_list
                  for seed in cfg.seeds)


def trace_filename(scheme: str, n: int, m: int, seed: int) -> str:
    return f"trace_{scheme}_N{n}_M{m}_seed{seed}.jsonl"


def _execute_point(args) -> RunSummary:
    run_cfg, trace_path = args
    try:
        result = run_single(run_cfg)
    except Exception as exc:
        raise SweepError(run_cfg.scheme, run_cfg.m_urllc, run_cfg.seed, exc) from exc
    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.trace_lines))
            fh.write("\n")
    return result.summary


def run_sweep(cfg: ScenarioConfig, jobs: int = 1,
              trace_dir: Optional[str] = None) -> list[RunSummary]:
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    tasks = []
    for scheme, m, seed in expand_grid(cfg):
        trace_path = None
        if trace_dir is not None:
            trace_path = str(Path(trace_dir) / trace_filename(scheme, cfg.n_regular, m, seed))
        tasks.append((cfg.run_config(scheme, m, seed, trace=trace_path is not None),
                      trace_path))
    # More workers than points or CPUs would only add interpreter start-ups.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    try:
        if workers > 1:
            with get_context("spawn").Pool(workers) as pool:
                return pool.map(_execute_point, tasks)
        return [_execute_point(t) for t in tasks]
    except BaseException:
        # A failed sweep leaves none of its grid's trace files behind.
        for _, trace_path in tasks:
            if trace_path is not None:
                with contextlib.suppress(OSError):
                    os.remove(trace_path)
        raise


# -- CSV / curve files ------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def summary_row(s: RunSummary) -> str:
    fields = (s.scheme, s.m_urllc, s.n_regular, s.seed,
              s.urllc_delay_mean, s.urllc_delay_p99,
              s.urllc_delivered, s.urllc_dropped, s.urllc_collided,
              s.regular_throughput_bps, s.regular_delivered,
              s.regular_preempted, s.channel_busy_fraction,
              s.sim_duration, s.warmup)
    return ",".join(_fmt(f) for f in fields)


def render_csv(summaries: list[RunSummary]) -> str:
    lines = [CSV_HEADER]
    lines.extend(summary_row(s) for s in summaries)
    return "\n".join(lines) + "\n"


def write_summary_csv(summaries: list[RunSummary], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(summaries))


def write_curve_files(summaries: list[RunSummary], out_dir: str) -> list[str]:
    """Two-column (M, metric) files per scheme, seed-averaged; gnuplot-ready."""
    os.makedirs(out_dir, exist_ok=True)
    metrics = {
        "urllc_delay_mean_us": lambda s: s.urllc_delay_mean,
        "regular_throughput_bps": lambda s: s.regular_throughput_bps,
    }
    written = []
    schemes = sorted({s.scheme for s in summaries})
    for scheme in schemes:
        for name, get in metrics.items():
            by_m: dict[int, list[float]] = {}
            for s in summaries:
                if s.scheme != scheme:
                    continue
                v = get(s)
                if v is not None:
                    by_m.setdefault(s.m_urllc, []).append(v)
            if not by_m:
                continue
            path = str(Path(out_dir) / f"{name}_{scheme}.dat")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# M  {name} ({scheme}, mean over seeds)\n")
                for m in sorted(by_m):
                    vals = by_m[m]
                    fh.write(f"{m} {_fmt(sum(vals) / len(vals))}\n")
            written.append(path)
    return written
