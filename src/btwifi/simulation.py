"""Assembly and execution of one simulation run.

A run is fully self-contained: its engine, medium, stations and RNG
streams are built fresh from (config, scheme, M, seed), so independent
runs can execute in any order or in parallel without affecting each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import Engine, RngStream, SimTime
from .mac import EdcaParams, PhyConstants, Station
from .medium import Medium
from .metrics import MetricsCollector, RunSummary
from .trace import Tracer
from .traffic import ExpAfterSuccessSource, SaturatedSource
from .urllc import UrllcStation

LEGACY = "legacy"
PROPOSED = "proposed"


@dataclass(slots=True)
class RunConfig:
    scheme: str
    n_regular: int
    m_urllc: int
    seed: int
    sim_duration: SimTime
    warmup: SimTime
    phy: PhyConstants
    regular: EdcaParams
    urllc: EdcaParams
    detection_delay: SimTime
    urllc_mean_interarrival: SimTime
    trace: bool


@dataclass(slots=True)
class RunResult:
    summary: RunSummary
    urllc_delays: list
    per_sta_delivered: dict
    trace_lines: Optional[list] = None


def run_single(cfg: RunConfig) -> RunResult:
    if cfg.scheme not in (LEGACY, PROPOSED):
        raise ValueError(f"unknown scheme {cfg.scheme!r}")
    engine = Engine()
    tracer = Tracer() if cfg.trace else None
    collector = MetricsCollector(cfg.warmup, cfg.sim_duration)
    medium = Medium(engine, cfg.detection_delay, collector, tracer)

    proposed = cfg.scheme == PROPOSED
    stations: list[Station] = []
    sources = []
    for i in range(cfg.n_regular):
        sta = Station(f"r{i}", "regular", cfg.regular, cfg.phy, medium,
                      RngStream(cfg.seed, f"r{i}:backoff"), reacts_to_tone=proposed)
        stations.append(sta)
        sources.append(SaturatedSource(sta))
    for j in range(cfg.m_urllc):
        sta_cls = UrllcStation if proposed else Station
        sta = sta_cls(f"u{j}", "urllc", cfg.urllc, cfg.phy, medium,
                      RngStream(cfg.seed, f"u{j}:backoff"))
        stations.append(sta)
        sources.append(ExpAfterSuccessSource(sta, cfg.urllc_mean_interarrival,
                                             RngStream(cfg.seed, f"u{j}:arrival")))
    medium.listeners = stations
    for src in sources:
        src.start(engine)

    engine.run_until(cfg.sim_duration)

    in_flight = {"regular": 0, "urllc": 0}
    for sta in stations:
        if sta.head is not None:
            in_flight[sta.traffic_class] += 1
    summary = collector.finalize(cfg.scheme, cfg.m_urllc, cfg.n_regular,
                                 cfg.seed, in_flight)
    return RunResult(summary, collector.urllc_delays,
                     dict(collector.per_sta_delivered),
                     tracer.lines if tracer is not None else None)
