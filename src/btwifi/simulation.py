"""Assembly and execution of one simulation run.

A run is fully self-contained: its engine, medium, stations and RNG
streams are built fresh from a config.RunConfig (the scenario plus scheme,
M and seed), so independent runs can execute in any order or in parallel
without affecting each other.

A run frees what it built when run_single returns or raises.  Its objects
hold each other in reference cycles (a station and its source, a station
and the medium's listeners and class heaps, the engine's pending events
and the bound methods they call), and reference counting alone never
frees a cycle.  So run_single closes the engine, the medium and every
station once the event loop stops; what is left is acyclic and goes at
once, instead of waiting, with its RNG states and trace, for a full
collection of the cyclic garbage collector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import PROPOSED, SCHEMES, RunConfig
from .engine import Engine, RngStream
from .mac import Station
from .medium import Medium
from .metrics import CLASSES, MetricsCollector, RunSummary
from .trace import TraceLines, Tracer
from .traffic import ExpAfterSuccessSource, SaturatedSource
from .urllc import UrllcStation


@dataclass(slots=True)
class RunResult:
    summary: RunSummary
    # the JSONL lines of a traced run, else None; every audit of them
    # shares tracecheck.load_records' one fold
    trace_lines: Optional[TraceLines]


def run_single(cfg: RunConfig) -> RunResult:
    if cfg.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {cfg.scheme!r}")
    engine = Engine()
    collector = (Tracer if cfg.trace else MetricsCollector)(cfg.warmup, cfg.sim_duration)
    medium = Medium(engine, cfg.detection_delay, collector)
    stations: list[Station] = []
    try:
        urllc_cls = UrllcStation if cfg.scheme == PROPOSED else Station
        sources = []
        for i in range(cfg.n_regular):
            sta = Station(f"r{i}", "regular", cfg.regular, cfg.phy, medium,
                          RngStream(cfg.seed, f"r{i}:backoff"))
            stations.append(sta)
            sources.append(SaturatedSource(sta))
        for j in range(cfg.m_urllc):
            sta = urllc_cls(f"u{j}", "urllc", cfg.urllc, cfg.phy, medium,
                            RngStream(cfg.seed, f"u{j}:backoff"))
            stations.append(sta)
            sources.append(ExpAfterSuccessSource(sta, cfg.urllc_mean_interarrival,
                                                 RngStream(cfg.seed, f"u{j}:arrival")))
        for src in sources:
            src.start()

        engine.run_until(cfg.sim_duration)

        in_flight = dict.fromkeys(CLASSES, 0)
        for sta in stations:
            if sta.head is not None:
                in_flight[sta.traffic_class] += 1
        summary = collector.finalize(cfg.scheme, cfg.m_urllc, cfg.n_regular,
                                     cfg.seed, in_flight)
        return RunResult(summary, collector.trace_lines() if cfg.trace else None)
    finally:
        engine.close()
        medium.close()
        for sta in stations:
            sta.close()
