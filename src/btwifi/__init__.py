"""Discrete-event Wi-Fi BSS simulator: EDCA channel access plus a
busy-tone control-channel extension that gives low-latency traffic
preemptive priority over regular transmissions."""

from .config import ConfigError, RunConfig, ScenarioConfig, parse_config
from .engine import ContractViolation, Engine, RngStream, SimTime
from .mac import EdcaParams, Frame, PhyConstants, Station, aifs
from .medium import Medium, Transmission
from .metrics import MetricsCollector, RunSummary
from .simulation import RunResult, run_single
from .sweep import expand_grid, run_sweep, write_summary_csv
from .traffic import ExpAfterSuccessSource, SaturatedSource
from .urllc import UrllcStation

__version__ = "0.1.0"
