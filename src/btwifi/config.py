"""Scenario files: a line-oriented `key = value` format with sections.

Grammar (diff-friendly on purpose):

    # comment                     blank lines and #-comments are ignored
    [run]                         section header
    n_regular = 10                integer
    m_urllc = 1, 5, 10            comma-separated integer list
    schemes = legacy, proposed    subset of {legacy, proposed}
    seeds = 1, 2, 3               comma-separated integer list

Repeating an entry in m_urllc, schemes or seeds is an error: it would only
run the same grid point twice.  So is setting a key twice in one section
(headers may repeat), which would otherwise silently keep the last value.

Sections and keys are listed in SCHEMA below; an empty file yields the
full default scenario.  Parsing validates everything it can and reports
all problems at once, each with its line number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .mac import EdcaParams, PhyConstants
from .simulation import SCHEMES, RunConfig

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
    detection_delay: int = 0
    urllc_mean_interarrival: int = 10_000
    phy: PhyConstants = PhyConstants()
    regular: EdcaParams = EdcaParams(3, 15, 1023, 7, 2000, 44, 129_760)
    urllc: EdcaParams = EdcaParams(2, 3, 15, 7, 200, 44, 1600)

    def run_config(self, scheme: str, m: int, seed: int,
                   trace: bool = False) -> RunConfig:
        return RunConfig(
            scheme=scheme, n_regular=self.n_regular, m_urllc=m, seed=seed,
            sim_duration=self.sim_duration, warmup=self.warmup,
            phy=self.phy, regular=self.regular, urllc=self.urllc,
            detection_delay=self.detection_delay,
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


# (section, key) -> (ScenarioConfig group or None, attribute, value parser)
SCHEMA = {
    ("run", "n_regular"): (None, "n_regular", int),
    ("run", "m_urllc"): (None, "m_list", _parse_int_list),
    ("run", "schemes"): (None, "schemes", _parse_schemes),
    ("run", "seeds"): (None, "seeds", _parse_int_list),
    ("run", "sim_duration_us"): (None, "sim_duration", int),
    ("run", "warmup_us"): (None, "warmup", int),
    ("phy", "slot_us"): ("phy", "slot_time", int),
    ("phy", "sifs_us"): ("phy", "sifs", int),
    ("phy", "ack_timeout_guard_us"): ("phy", "ack_timeout_guard", int),
    ("phy", "detection_delay_us"): (None, "detection_delay", int),
    # [regular] and [urllc] share the EDCA keys; "_us" is not in the attribute
    **{(cls, key): (cls, key.removesuffix("_us"), int)
       for cls in ("regular", "urllc")
       for key in ("aifsn", "cw_min", "cw_max", "retry_limit",
                   "data_airtime_us", "ack_airtime_us")},
    ("regular", "payload_bits"): ("regular", "payload_bits", int),
    ("urllc", "mean_interarrival_us"): (None, "urllc_mean_interarrival", int),
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
        if getattr(cfg.phy, name) < 1:
            bad.append(f"{name} must be strictly positive")
    if cfg.detection_delay < 0:
        bad.append("detection_delay_us must be >= 0")
    if cfg.regular.data_airtime > MAX_REGULAR_AIRTIME_US:
        bad.append(f"regular data_airtime_us {cfg.regular.data_airtime} exceeds "
                   f"the ~5 ms airtime bound ({MAX_REGULAR_AIRTIME_US} us)")
    for cls, p in (("regular", cfg.regular), ("urllc", cfg.urllc)):
        if p.aifsn < 2:
            bad.append(f"{cls} aifsn must be >= 2")
        if not _is_cw_shape(p.cw_min) or not _is_cw_shape(p.cw_max):
            bad.append(f"{cls} cw_min/cw_max must be of the form 2^k - 1")
        if p.cw_min > p.cw_max:
            bad.append(f"{cls} cw_min must be <= cw_max")
        if p.retry_limit < 0:
            bad.append(f"{cls} retry_limit must be >= 0")
        if p.data_airtime < 1:
            bad.append(f"{cls} data_airtime_us must be >= 1")
        if p.ack_airtime < 1:
            bad.append(f"{cls} ack_airtime_us must be >= 1")
        if p.payload_bits < 0:
            bad.append(f"{cls} payload_bits must be >= 0")
    if cfg.urllc_mean_interarrival < 1:
        bad.append("urllc mean_interarrival_us must be >= 1")
    return bad


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario file; raises ConfigError listing
    every problem found."""
    problems: list[tuple[int, str]] = []
    values: dict = {}  # group or None -> {attribute: parsed value}
    set_on: dict = {}  # (section, key) -> line of its first setting
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
        first = set_on.setdefault((section, key), lineno)
        if first != lineno:
            problems.append((lineno, f"key {key!r} in [{section}] already set "
                             f"on line {first}"))
            continue
        group, attr, parser = entry
        try:
            values.setdefault(group, {})[attr] = parser(value.strip())
        except ValueError as exc:
            problems.append((lineno, f"bad value for {key!r}: {exc}"))
    cfg = replace(ScenarioConfig(), **values.pop(None, {}))
    cfg = replace(cfg, **{group: replace(getattr(cfg, group), **attrs)
                          for group, attrs in values.items()})
    problems.extend((0, msg) for msg in validate(cfg))
    if problems:
        raise ConfigError(problems)
    return cfg
