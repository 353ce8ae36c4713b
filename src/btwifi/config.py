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
full default scenario.  A SCHEMA row's parser checks its key's own range;
validate's cross-value rules run once every line is valid.

This module owns every configuration name: the SCHEMES, the scenario
(ScenarioConfig) and one grid point of it (RunConfig, the scenario plus a
scheme, M, seed and trace flag), which simulation.run_single runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from .mac import EdcaParams, PhyConstants
from .metrics import CLASSES

SCHEMES = ("legacy", "proposed")  # plain EDCA; EDCA with the busy tone
LEGACY, PROPOSED = SCHEMES

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
        return RunConfig(scheme=scheme, m_urllc=m, seed=seed, trace=trace,
                         **{f.name: getattr(self, f.name)
                            for f in fields(ScenarioConfig)})


@dataclass(slots=True, kw_only=True)
class RunConfig(ScenarioConfig):
    """One grid point: its scenario plus the scheme, M and seed it runs,
    traced or not."""
    scheme: str
    m_urllc: int
    seed: int
    trace: bool


class ConfigError(ValueError):
    """All scenario-file problems, each tagged with its line number."""

    def __init__(self, problems: list[tuple[int, str]]) -> None:
        self.problems = problems
        super().__init__("\n".join(
            f"line {line}: {msg}" if line else msg for line, msg in problems))


def _int(lo: int, hi: Optional[int] = None):
    """A parser for an integer in [lo, hi] (no upper bound if hi is None)."""
    def parse(text: str) -> int:
        v = int(text)
        if v < lo:
            raise ValueError(f"must be >= {lo} (got {v})")
        if hi is not None and v > hi:
            raise ValueError(f"must be <= {hi} (got {v})")
        return v
    return parse


def _cw(text: str) -> int:
    v = int(text)
    if v < 0 or (v + 1) & v:
        raise ValueError(f"must be of the form 2^k - 1 (got {v})")
    return v


def _scheme(text: str) -> str:
    if text not in SCHEMES:
        raise ValueError(f"unknown scheme {text!r} (choose from {', '.join(SCHEMES)})")
    return text


def _list(item):
    """A parser for a comma-separated list of distinct items."""
    def parse(text: str) -> tuple:
        values = tuple(item(part.strip()) for part in text.split(","))
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ValueError(f"{v!r} is listed twice")
        return values
    return parse


# (section, key) -> (ScenarioConfig group or None, attribute, value parser)
SCHEMA = {
    ("run", "n_regular"): (None, "n_regular", _int(0)),
    ("run", "m_urllc"): (None, "m_list", _list(int)),
    ("run", "schemes"): (None, "schemes", _list(_scheme)),
    ("run", "seeds"): (None, "seeds", _list(int)),
    ("run", "sim_duration_us"): (None, "sim_duration", _int(1)),
    ("run", "warmup_us"): (None, "warmup", _int(0)),
    ("phy", "slot_us"): ("phy", "slot_time", _int(1)),
    ("phy", "sifs_us"): ("phy", "sifs", _int(1)),
    ("phy", "ack_timeout_guard_us"): ("phy", "ack_timeout_guard", _int(1)),
    ("phy", "detection_delay_us"): (None, "detection_delay", _int(0)),
    # every class has these EDCA keys ("_us" is not in the attribute); later rows win
    **{(cls, key): (cls, key.removesuffix("_us"), parser)
       for cls in CLASSES
       for key, parser in (("aifsn", _int(2)), ("cw_min", _cw), ("cw_max", _cw),
                           ("retry_limit", _int(0)), ("data_airtime_us", _int(1)),
                           ("ack_airtime_us", _int(1)))},
    ("regular", "data_airtime_us"): ("regular", "data_airtime",
                                     _int(1, MAX_REGULAR_AIRTIME_US)),
    ("regular", "payload_bits"): ("regular", "payload_bits", _int(0)),
    ("urllc", "mean_interarrival_us"): (None, "urllc_mean_interarrival", _int(1)),
}

SECTIONS = sorted({section for section, _ in SCHEMA})


def validate(cfg: ScenarioConfig) -> list[str]:
    """Problems no one key shows: rules that tie two values together, and
    rules on the grid that --scheme/--m/--seed narrow (empty if ok)."""
    bad = []
    for m in cfg.m_list:
        if m < 0:
            bad.append(f"m_urllc entries must be >= 0 (got {m})")
        elif cfg.n_regular + m < 1:
            bad.append(f"need at least one station: n_regular + M >= 1 (M={m})")
    if cfg.warmup >= cfg.sim_duration:
        bad.append("warmup_us must be less than sim_duration_us")
    for cls in CLASSES:
        p = getattr(cfg, cls)
        if p.cw_min > p.cw_max:
            bad.append(f"{cls} cw_min must be <= cw_max")
        # A clean frame no longer than SIFS fits between another clean frame
        # and its ack, and the AP would owe two overlapping acks.
        if p.data_airtime <= cfg.phy.sifs:
            bad.append(f"{cls} data_airtime_us must exceed sifs_us")
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
    if not problems:  # else a rule may judge a default that replaced a bad value
        problems.extend((0, msg) for msg in validate(cfg))
    if problems:
        raise ConfigError(problems)
    return cfg


def read_scenario(path: Optional[str]) -> ScenarioConfig:
    """The scenario in the file at path, or the defaults when path is None."""
    if path is None:
        return ScenarioConfig()
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([(0, f"cannot read {path}: {exc}")]) from exc
