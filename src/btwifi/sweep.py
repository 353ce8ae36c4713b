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
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Optional

from .config import ScenarioConfig
from .metrics import RunSummary
from .simulation import run_single

# (CSV column, RunSummary attribute), in column order
CSV_COLUMNS = tuple((f.metadata.get("column", f.name), f.name) for f in fields(RunSummary))
CSV_HEADER = ",".join(column for column, _ in CSV_COLUMNS)
_row_fields = attrgetter(*(attr for _, attr in CSV_COLUMNS))

# curve file metric -> the RunSummary attribute it averages
CURVES = {"urllc_delay_mean_us": "urllc_delay_mean",
          "regular_throughput_bps": "regular_throughput_bps"}


class SweepError(RuntimeError):
    """A run aborted; carries the offending grid point."""

    def __init__(self, scheme: str, m: int, seed: int, cause) -> None:
        self.point = (scheme, m, seed)
        super().__init__(f"run (scheme={scheme}, M={m}, seed={seed}) failed: {cause}")


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
    result = run_single(run_cfg)
    if trace_path is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            # a block at a time, so no joined copy of the trace is held; the
            # bytes are those of "\n".join(lines) + "\n", one blank line if empty
            for block in result.trace_lines.blocks or [""]:
                fh.write(block)
                fh.write("\n")
    return result.summary


def trace_paths(cfg: ScenarioConfig, trace_dir: Optional[str]) -> list:
    """Each grid point's trace file in expand_grid order; None if untraced."""
    return [None if trace_dir is None else
            str(Path(trace_dir) / trace_filename(scheme, cfg.n_regular, m, seed))
            for scheme, m, seed in expand_grid(cfg)]


def _usable_cpus() -> int:
    """The CPUs this process may run on, which may be fewer than the host's."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _run_pool(tasks: list, workers: int):
    """Each task's summary from spawned workers, in task order."""
    # imported here, so that a serial sweep or a lone run never loads them
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context
    # An executor, not multiprocessing.Pool: when a worker dies, the pool
    # fails the points it leaves unfinished instead of waiting for them.
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        try:
            yield from pool.map(_execute_point, tasks)
        except BrokenProcessPool as exc:
            raise RuntimeError(f"a worker process died ({exc})") from exc


def run_sweep(cfg: ScenarioConfig, jobs: int = 1,
              trace_dir: Optional[str] = None) -> list[RunSummary]:
    """Every grid point's summary, in grid order; trace_dir must exist.  A
    failed run raises SweepError naming the first failing point in grid
    order; an OSError, raised only by a trace write, passes through."""
    grid = expand_grid(cfg)
    tasks = [(cfg.run_config(*point, trace=path is not None), path)
             for point, path in zip(grid, trace_paths(cfg, trace_dir))]
    # More workers than points or CPUs would only add interpreter start-ups.
    workers = min(jobs, len(tasks), _usable_cpus())
    summaries = []
    try:
        for summary in (map(_execute_point, tasks) if workers <= 1
                        else _run_pool(tasks, workers)):
            summaries.append(summary)
    except OSError:
        raise
    except Exception as exc:
        raise SweepError(*grid[len(summaries)], exc) from exc
    return summaries


def write_outputs(cfg: ScenarioConfig, out: str, jobs: int = 1,
                  trace_dir: Optional[str] = None,
                  curves_dir: Optional[str] = None) -> list[RunSummary]:
    """Run the sweep and write its summary CSV, trace and curve files.

    An output error raises OSError before any run.  Two outputs that resolve
    to one file write or remove nothing; otherwise all directories are made
    and every file opened once, and any failure from then on removes every
    file, so no partial or stale output (but perhaps an empty dir) is left.
    """
    paths = [out, *(p for p in trace_paths(cfg, trace_dir) if p is not None)]
    if curves_dir is not None:
        paths += [curve_path(curves_dir, name, scheme)
                  for scheme in cfg.schemes for name in CURVES]
    seen = set()
    for path in paths:
        resolved = Path(path).resolve()
        if resolved in seen:
            raise OSError(f"{path} is named by two outputs; one would overwrite the other")
        seen.add(resolved)
    try:
        for directory in (d for d in (trace_dir, curves_dir) if d is not None):
            os.makedirs(directory, exist_ok=True)
        for path in paths:
            open(path, "w").close()
        summaries = run_sweep(cfg, jobs, trace_dir)
        write_summary_csv(summaries, out)
        if curves_dir is not None:
            write_curve_files(summaries, curves_dir)
    except BaseException:
        for path in paths:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    return summaries


# -- CSV / curve files ------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def summary_row(s: RunSummary) -> str:
    return ",".join(map(_fmt, _row_fields(s)))


def render_csv(summaries: list[RunSummary]) -> str:
    lines = [CSV_HEADER]
    lines.extend(summary_row(s) for s in summaries)
    return "\n".join(lines) + "\n"


def write_summary_csv(summaries: list[RunSummary], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_csv(summaries))


def curve_path(out_dir: str, name: str, scheme: str) -> str:
    return str(Path(out_dir) / f"{name}_{scheme}.dat")


def write_curve_files(summaries: list[RunSummary], out_dir: str) -> None:
    """Two-column (M, metric) files per scheme, seed-averaged; gnuplot-ready.

    Every (scheme, metric) file is written, with only its header when no
    run has a value, so a file left by an earlier sweep never survives.
    """
    for scheme in sorted({s.scheme for s in summaries}):
        for name, attr in CURVES.items():
            by_m: dict[int, list[float]] = {}
            for s in summaries:
                if s.scheme != scheme:
                    continue
                v = getattr(s, attr)
                if v is not None:
                    by_m.setdefault(s.m_urllc, []).append(v)
            path = curve_path(out_dir, name, scheme)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"# M  {name} ({scheme}, mean over seeds)\n")
                for m in sorted(by_m):
                    vals = by_m[m]
                    fh.write(f"{m} {_fmt(sum(vals) / len(vals))}\n")
