"""Scenario files: a line-oriented `key = value` format with sections.

Grammar (diff-friendly on purpose):

    # comment                     blank lines and #-comments are ignored
    [run]                         section header
    n_regular = 10                integer
    m_urllc = 1, 5, 10            comma-separated integer list
    schemes = legacy, proposed    subset of {legacy, proposed}
    seeds = 1, 2, 3               comma-separated integer list

Repeating an entry in m_urllc, schemes or seeds is an error: it would only
run the same grid point twice.

Sections and keys are listed in SCHEMA below; an empty file yields the
full default scenario.  Parsing validates everything it can and reports
all problems at once, each with its line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .mac import EdcaParams, PhyConstants
from .simulation import RunConfig

SCHEMES = ("legacy", "proposed")

# One regular data frame may occupy the air for at most ~5 ms.
MAX_REGULAR_AIRTIME_US = 5484

DEFAULT_M_LIST = (1, 5, 10, 15, 20, 25, 30, 35, 40)
DEFAULT_SEEDS = tuple(range(1, 11))


@dataclass(slots=True)
class ScenarioConfig:
    n_regular: int = 10
    m_list: tuple = DEFAULT_M_LIST
    schemes: tuple = SCHEMES
    seeds: tuple = DEFAULT_SEEDS
    sim_duration: int = 100_000_000  # 100 s
    warmup: int = 1_000_000  # 1 s
    slot_time: int = 9
    sifs: int = 16
    ack_timeout_guard: int = 9
    detection_delay: int = 0
    regular_aifsn: int = 3
    regular_cw_min: int = 15
    regular_cw_max: int = 1023
    regular_retry_limit: int = 7
    regular_data_airtime: int = 2000
    regular_ack_airtime: int = 44
    regular_payload_bits: int = 129_760
    urllc_aifsn: int = 2
    urllc_cw_min: int = 3
    urllc_cw_max: int = 15
    urllc_retry_limit: int = 7
    urllc_data_airtime: int = 200
    urllc_ack_airtime: int = 44
    urllc_payload_bits: int = 1600
    urllc_mean_interarrival: int = 10_000

    def phy(self) -> PhyConstants:
        return PhyConstants(self.slot_time, self.sifs, self.ack_timeout_guard)

    def regular_params(self) -> EdcaParams:
        return EdcaParams(self.regular_aifsn, self.regular_cw_min,
                          self.regular_cw_max, self.regular_retry_limit,
                          self.regular_data_airtime, self.regular_ack_airtime,
                          self.regular_payload_bits)

    def urllc_params(self) -> EdcaParams:
        return EdcaParams(self.urllc_aifsn, self.urllc_cw_min,
                          self.urllc_cw_max, self.urllc_retry_limit,
                          self.urllc_data_airtime, self.urllc_ack_airtime,
                          self.urllc_payload_bits)

    def run_config(self, scheme: str, m: int, seed: int,
                   trace: bool = False) -> RunConfig:
        return RunConfig(
            scheme=scheme, n_regular=self.n_regular, m_urllc=m, seed=seed,
            sim_duration=self.sim_duration, warmup=self.warmup,
            phy=self.phy(), regular=self.regular_params(),
            urllc=self.urllc_params(), detection_delay=self.detection_delay,
            urllc_mean_interarrival=self.urllc_mean_interarrival,
            trace=trace)


class ConfigError(ValueError):
    """All scenario-file problems, each tagged with its line number."""

    def __init__(self, problems: list[tuple[int, str]]) -> None:
        self.problems = problems
        super().__init__("\n".join(
            f"line {line}: {msg}" if line else msg for line, msg in problems))


def _no_repeats(values: tuple) -> tuple:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{v!r} is listed twice")
    return values


def _parse_int_list(text: str) -> tuple:
    return _no_repeats(tuple(int(part.strip()) for part in text.split(",")))


def _parse_schemes(text: str) -> tuple:
    out = tuple(part.strip() for part in text.split(","))
    for s in out:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r} (choose from {', '.join(SCHEMES)})")
    return _no_repeats(out)


# (section, key) -> (ScenarioConfig attribute, value parser)
SCHEMA = {
    ("run", "n_regular"): ("n_regular", int),
    ("run", "m_urllc"): ("m_list", _parse_int_list),
    ("run", "schemes"): ("schemes", _parse_schemes),
    ("run", "seeds"): ("seeds", _parse_int_list),
    ("run", "sim_duration_us"): ("sim_duration", int),
    ("run", "warmup_us"): ("warmup", int),
    ("phy", "slot_us"): ("slot_time", int),
    ("phy", "sifs_us"): ("sifs", int),
    ("phy", "ack_timeout_guard_us"): ("ack_timeout_guard", int),
    ("phy", "detection_delay_us"): ("detection_delay", int),
    ("regular", "aifsn"): ("regular_aifsn", int),
    ("regular", "cw_min"): ("regular_cw_min", int),
    ("regular", "cw_max"): ("regular_cw_max", int),
    ("regular", "retry_limit"): ("regular_retry_limit", int),
    ("regular", "data_airtime_us"): ("regular_data_airtime", int),
    ("regular", "ack_airtime_us"): ("regular_ack_airtime", int),
    ("regular", "payload_bits"): ("regular_payload_bits", int),
    ("urllc", "aifsn"): ("urllc_aifsn", int),
    ("urllc", "cw_min"): ("urllc_cw_min", int),
    ("urllc", "cw_max"): ("urllc_cw_max", int),
    ("urllc", "retry_limit"): ("urllc_retry_limit", int),
    ("urllc", "data_airtime_us"): ("urllc_data_airtime", int),
    ("urllc", "ack_airtime_us"): ("urllc_ack_airtime", int),
    ("urllc", "payload_bits"): ("urllc_payload_bits", int),
    ("urllc", "mean_interarrival_us"): ("urllc_mean_interarrival", int),
}

SECTIONS = sorted({section for section, _ in SCHEMA})


def _is_cw_shape(v: int) -> bool:
    # contention windows must look like 2^k - 1
    return v >= 0 and (v + 1) & v == 0


def validate(cfg: ScenarioConfig) -> list[str]:
    """Cross-field checks; returns human-readable problems (empty if ok)."""
    bad = []
    if cfg.n_regular < 0:
        bad.append("n_regular must be >= 0")
    if not cfg.m_list:
        bad.append("m_urllc list must not be empty")
    for m in cfg.m_list:
        if m < 0:
            bad.append(f"m_urllc entries must be >= 0 (got {m})")
        elif cfg.n_regular + m < 1:
            bad.append(f"need at least one station: n_regular + M >= 1 (M={m})")
    if not cfg.schemes:
        bad.append("schemes must not be empty")
    if not cfg.seeds:
        bad.append("seeds must not be empty")
    if cfg.sim_duration < 1:
        bad.append("sim_duration_us must be >= 1")
    if not 0 <= cfg.warmup < cfg.sim_duration:
        bad.append("warmup_us must satisfy 0 <= warmup < sim_duration")
    for name in ("slot_time", "sifs", "ack_timeout_guard"):
        if getattr(cfg, name) < 1:
            bad.append(f"{name} must be strictly positive")
    if cfg.detection_delay < 0:
        bad.append("detection_delay_us must be >= 0")
    if cfg.regular_data_airtime > MAX_REGULAR_AIRTIME_US:
        bad.append(f"regular data_airtime_us {cfg.regular_data_airtime} exceeds "
                   f"the ~5 ms airtime bound ({MAX_REGULAR_AIRTIME_US} us)")
    for cls in ("regular", "urllc"):
        aifsn = getattr(cfg, f"{cls}_aifsn")
        cw_min = getattr(cfg, f"{cls}_cw_min")
        cw_max = getattr(cfg, f"{cls}_cw_max")
        if aifsn < 2:
            bad.append(f"{cls} aifsn must be >= 2")
        if not _is_cw_shape(cw_min) or not _is_cw_shape(cw_max):
            bad.append(f"{cls} cw_min/cw_max must be of the form 2^k - 1")
        if cw_min > cw_max:
            bad.append(f"{cls} cw_min must be <= cw_max")
        if getattr(cfg, f"{cls}_retry_limit") < 0:
            bad.append(f"{cls} retry_limit must be >= 0")
        if getattr(cfg, f"{cls}_data_airtime") < 1:
            bad.append(f"{cls} data_airtime_us must be >= 1")
        if getattr(cfg, f"{cls}_ack_airtime") < 1:
            bad.append(f"{cls} ack_airtime_us must be >= 1")
        if getattr(cfg, f"{cls}_payload_bits") < 0:
            bad.append(f"{cls} payload_bits must be >= 0")
    if cfg.urllc_mean_interarrival < 1:
        bad.append("urllc mean_interarrival_us must be >= 1")
    return bad


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError listing
    every problem found."""
    problems: list[tuple[int, str]] = []
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in SECTIONS:
                problems.append((lineno, f"unknown section [{section}] "
                                 f"(known: {', '.join(SECTIONS)})"))
                section = None
            continue
        if "=" not in line:
            problems.append((lineno, f"expected `key = value`, got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if section is None:
            problems.append((lineno, f"key {key!r} appears before any valid section"))
            continue
        entry = SCHEMA.get((section, key))
        if entry is None:
            problems.append((lineno, f"unknown key {key!r} in section [{section}]"))
            continue
        attr, parser = entry
        try:
            values[attr] = parser(value.strip())
        except ValueError as exc:
            problems.append((lineno, f"bad value for {key!r}: {exc}"))
    cfg = replace(ScenarioConfig(), **values)
    problems.extend((0, msg) for msg in validate(cfg))
    if problems:
        raise ConfigError(problems)
    return cfg
