from dataclasses import replace
from pathlib import Path

import pytest

from btwifi.cli import main
from btwifi.config import (ConfigError, ScenarioConfig, parse_config,
                           validate)


def test_empty_file_yields_full_defaults():
    cfg = parse_config("")
    assert cfg.n_regular == 10
    assert cfg.m_list == (1, 5, 10, 15, 20, 25, 30, 35, 40)
    assert cfg.schemes == ("legacy", "proposed")
    assert cfg.seeds == tuple(range(1, 11))
    assert cfg.sim_duration == 100_000_000
    assert cfg.warmup == 1_000_000
    assert cfg.urllc_mean_interarrival == 10_000
    assert cfg.regular.data_airtime == 2000


def test_full_file_round_trip():
    cfg = parse_config("""
        # scenario for a quick look
        [run]
        n_regular = 4
        m_urllc = 1, 2
        schemes = proposed
        seeds = 7
        sim_duration_us = 5000000
        warmup_us = 100000

        [phy]
        slot_us = 9
        sifs_us = 16
        detection_delay_us = 2

        [regular]
        data_airtime_us = 1500
        cw_min = 31

        [urllc]
        mean_interarrival_us = 5000
    """)
    assert cfg.n_regular == 4
    assert cfg.m_list == (1, 2)
    assert cfg.schemes == ("proposed",)
    assert cfg.seeds == (7,)
    assert cfg.detection_delay == 2
    assert cfg.regular.cw_min == 31
    assert cfg.regular.data_airtime == 1500
    assert cfg.urllc_mean_interarrival == 5000


def test_overlong_regular_airtime_is_rejected_with_bound():
    with pytest.raises(ConfigError) as exc:
        parse_config("[regular]\ndata_airtime_us = 6000\n")
    assert "5 ms" in str(exc.value)


def test_all_problems_reported_at_once_with_line_numbers():
    text = "\n".join([
        "[run]",
        "n_regular = banana",      # line 2: bad int
        "mystery_key = 5",         # line 3: unknown key
        "[nope]",                  # line 4: unknown section
        "x = 1",                   # line 5: key before valid section
        "[urllc]",
        "cw_min = 6",              # not 2^k - 1
        "[run]",
        "trace = on",              # line 9: traces come from --trace-dir only
        "n_regular = 4",           # line 10: set on line 2, though unparsable
        "[urllc]",
        "cw_min = 7",              # line 12: already set on line 7
        "payload_bits = 1600",     # line 13: only regular payload is counted
    ])
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = str(exc.value)
    problems = exc.value.problems
    assert len(problems) >= 5
    assert "line 2" in msg and "line 3" in msg and "line 4" in msg
    assert "2^k - 1" in msg
    assert "line 9: unknown key 'trace'" in msg
    assert "line 10: key 'n_regular' in [run] already set on line 2" in msg
    assert "line 12: key 'cw_min' in [urllc] already set on line 7" in msg
    assert "line 13: unknown key 'payload_bits'" in msg


def test_repeated_grid_entries_are_rejected_with_line_numbers(tmp_path):
    text = "[run]\nm_urllc = 1, 1\nseeds = 3, 3\nschemes = legacy, legacy\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "line 2: bad value for 'm_urllc': 1 is listed twice" in msg
    assert "line 3: bad value for 'seeds': 3 is listed twice" in msg
    assert "line 4: bad value for 'schemes': 'legacy' is listed twice" in msg
    cfg_file = tmp_path / "repeats.cfg"
    cfg_file.write_text(text, encoding="utf-8")
    assert main(["--config", str(cfg_file), "--out", str(tmp_path / "o.csv")]) == 1
    assert not (tmp_path / "o.csv").exists()


def test_shipped_scenario_files_parse():
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    full = (scenarios / "full_sweep.cfg").read_text(encoding="utf-8")
    assert parse_config(full) == ScenarioConfig()
    quick = (scenarios / "quick_look.cfg").read_text(encoding="utf-8")
    assert parse_config(quick).m_list == (1, 10, 25)


def test_m_zero_with_both_schemes_is_legal():
    cfg = parse_config("[run]\nm_urllc = 0\n")
    assert cfg.m_list == (0,)


def test_no_stations_at_all_is_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("[run]\nn_regular = 0\nm_urllc = 0\n")
    assert "at least one station" in str(exc.value)


def test_unknown_scheme_is_rejected():
    with pytest.raises(ConfigError):
        parse_config("[run]\nschemes = legacy, turbo\n")


def test_warmup_must_precede_duration():
    with pytest.raises(ConfigError):
        parse_config("[run]\nsim_duration_us = 1000\nwarmup_us = 1000\n")


def test_cw_shape_validation():
    d = ScenarioConfig()
    assert validate(replace(d, regular=replace(d.regular, cw_min=15))) == []
    assert any("2^k" in p
               for p in validate(replace(d, regular=replace(d.regular, cw_min=10))))
    assert any("cw_min must be <=" in p
               for p in validate(replace(d, urllc=replace(d.urllc, cw_min=15, cw_max=7))))


def test_aifsn_lower_bound():
    d = ScenarioConfig()
    assert any("aifsn" in p
               for p in validate(replace(d, regular=replace(d.regular, aifsn=1))))


def test_run_config_carries_parameters_through():
    cfg = parse_config("[run]\nn_regular = 3\n")
    rc = cfg.run_config("proposed", 5, 42)
    assert rc.scheme == "proposed"
    assert rc.n_regular == 3 and rc.m_urllc == 5 and rc.seed == 42
    assert rc.regular.data_airtime == 2000
    assert rc.urllc.aifsn == 2
    assert rc.phy.sifs == 16
