from dataclasses import fields
from pathlib import Path

import pytest

from btwifi.cli import main
from btwifi.config import (ConfigError, RunConfig, ScenarioConfig, parse_config,
                           read_scenario)
from btwifi.mac import EdcaParams, PhyConstants


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
    assert str(exc.value) == ("line 2: bad value for 'data_airtime_us': "
                              "must be <= 5484 (got 6000)")
    assert parse_config("[regular]\ndata_airtime_us = 5484\n") \
        .regular.data_airtime == 5484


@pytest.mark.parametrize("section, key, value", [
    ("run", "n_regular", -1), ("run", "sim_duration_us", 0),
    ("run", "warmup_us", -1),
    ("phy", "slot_us", 0), ("phy", "sifs_us", 0),
    ("phy", "ack_timeout_guard_us", 0), ("phy", "detection_delay_us", -1),
    ("urllc", "aifsn", 1), ("urllc", "cw_min", 12), ("urllc", "cw_max", 1000),
    ("urllc", "retry_limit", -1), ("urllc", "ack_airtime_us", 0),
    ("regular", "data_airtime_us", 0), ("regular", "data_airtime_us", 6000),
    ("regular", "payload_bits", -1), ("urllc", "mean_interarrival_us", 0),
    # an empty grid list never reaches validate
    ("run", "m_urllc", ""), ("run", "schemes", ""), ("run", "seeds", ","),
])
def test_a_value_out_of_its_range_is_reported_on_its_line(section, key, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[{section}]\n{key} = {value}\n")
    (line, msg), = exc.value.problems
    assert line == 2 and msg.startswith(f"bad value for {key!r}: ")


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


def test_a_byte_order_mark_is_not_part_of_the_scenario(tmp_path):
    text = "[run]\nn_regular = 2\nm_urllc = 3\n"
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_scenario(str(bom)) == parse_config(text) != ScenarioConfig()


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
    # the rule is not judged against the default that replaced a bad warmup
    with pytest.raises(ConfigError) as exc:
        parse_config("[run]\nsim_duration_us = 1000\nwarmup_us = -1\n")
    assert [line for line, _ in exc.value.problems] == [3]


def test_cw_shape_validation():
    assert parse_config("[regular]\ncw_min = 15\n").regular.cw_min == 15
    assert parse_config("[regular]\ncw_min = 0\n").regular.cw_min == 0
    with pytest.raises(ConfigError) as exc:
        parse_config("[regular]\ncw_min = 10\n")
    assert "line 2: bad value for 'cw_min': must be of the form 2^k - 1" \
        in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config("[urllc]\ncw_min = 15\ncw_max = 7\n")
    assert str(exc.value) == "urllc cw_min must be <= cw_max"


def test_aifsn_lower_bound():
    assert parse_config("[regular]\naifsn = 2\n").regular.aifsn == 2
    with pytest.raises(ConfigError) as exc:
        parse_config("[regular]\naifsn = 1\n")
    assert str(exc.value) == "line 2: bad value for 'aifsn': must be >= 2 (got 1)"


@pytest.mark.parametrize("section", ["regular", "urllc"])
def test_data_airtime_must_exceed_sifs(section):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[phy]\nsifs_us = 16\n[{section}]\ndata_airtime_us = 16\n")
    assert str(exc.value) == f"{section} data_airtime_us must exceed sifs_us"
    cfg = parse_config(f"[phy]\nsifs_us = 16\n[{section}]\ndata_airtime_us = 17\n")
    assert getattr(cfg, section).data_airtime == 17


def test_a_frame_shorter_than_sifs_exits_1_instead_of_failing_its_run(tmp_path):
    cfg_file = tmp_path / "short_urllc.cfg"
    cfg_file.write_text(
        "[run]\nschemes = proposed\nm_urllc = 5\nseeds = 2\n"
        "sim_duration_us = 2000000\nwarmup_us = 100000\n"
        "[phy]\ndetection_delay_us = 30\n[urllc]\ndata_airtime_us = 5\n",
        encoding="utf-8")
    out = tmp_path / "o.csv"
    assert main(["--config", str(cfg_file), "--out", str(out)]) == 1
    assert not out.exists()


def test_run_config_carries_parameters_through():
    cfg = parse_config("[run]\nn_regular = 3\n")
    rc = cfg.run_config("proposed", 5, 42)
    assert rc.scheme == "proposed"
    assert rc.n_regular == 3 and rc.m_urllc == 5 and rc.seed == 42
    assert rc.regular.data_airtime == 2000
    assert rc.urllc.aifsn == 2
    assert rc.phy.sifs == 16


def test_run_config_is_its_scenario_plus_one_grid_point():
    # every scenario field differs from its default, so a field left out or
    # filled from another would show
    cfg = ScenarioConfig(
        n_regular=3, m_list=(2, 4), schemes=("proposed",), seeds=(7, 8),
        sim_duration=2_000_000, warmup=50_000, detection_delay=5,
        urllc_mean_interarrival=3_000,
        phy=PhyConstants(slot_time=4, sifs=10, ack_timeout_guard=6),
        regular=EdcaParams(4, 7, 511, 5, 1500, 30, 64_000),
        urllc=EdcaParams(3, 1, 7, 2, 150, 20, 800))
    defaults = ScenarioConfig()
    assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
               for f in fields(ScenarioConfig))
    rc = cfg.run_config("legacy", 9, 42, trace=True)
    assert type(rc) is RunConfig
    for f in fields(ScenarioConfig):
        assert getattr(rc, f.name) == getattr(cfg, f.name), f.name
    assert (rc.scheme, rc.m_urllc, rc.seed, rc.trace) == ("legacy", 9, 42, True)
