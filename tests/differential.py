"""Differential check: this checkout's src/ against any git revision's.

    python3 tests/differential.py REV
    python3 -m pytest -q tests/differential.py     # the harness's self-tests

It materialises REV's src/ into a temporary directory with
``git archive REV src | tar -x``, so it needs only the local history.
Then it runs the same traced points under both trees, one subprocess per
tree, and compares the sha256 of every summary row and every trace.  A
point is a JSON dict: scheme, M, seed, and the ``ScenarioConfig`` fields
it overrides (a dict of fields for phy, regular and urllc).  The points:

* a grid of 1 s runs: legacy, and proposed at a tone detection delay d in
  {0, 3, 34, 43} us; M in {1, 5, 15, 40}; seeds 1 and 2; the default
  regular ack and a 20 us one.  That is 80 points.
* 100 random small configurations from a seeded ``random.Random``, over
  the ranges of ``test_properties.small_scenarios``: up to 4 regular and
  3 URLLC stations, 5-50 ms, short frames, small windows and retry limits.

On a difference it prints the point, both rows if they differ, the first
pair of trace records that differ, and whether the two traces are equal
as multisets (``test_ties.canonical_records``).  Equal multisets mean the
change only reordered records within one microsecond.  The last line is
the verdict; the exit status is 0 iff no point differs.

The file name keeps it out of the repository's own test run; pytest
collects its self-tests when it is named on the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCHEMES = (("legacy", 0), *(("proposed", d) for d in (0, 3, 34, 43)))


def grid_point(scheme: str, d: int, m: int, seed: int, ack=None) -> dict:
    """One 1 s grid point; ack None keeps the default regular ack."""
    config = {"sim_duration": 1_000_000, "warmup": 100_000, "detection_delay": d}
    if ack is not None:
        config["regular"] = {"ack_airtime": ack}
    return {"scheme": scheme, "m": m, "seed": seed, "config": config}


def random_point(rng: random.Random) -> dict:
    """One small valid configuration, drawn as test_properties.small_scenarios
    draws it."""
    phy = {"slot_time": rng.choice([1, 9]), "sifs": rng.choice([1, 16]),
           "ack_timeout_guard": rng.choice([1, 9])}

    def edca(data_airtimes, cw_mins, cw_max):
        return {"aifsn": rng.randint(2, 4), "cw_min": rng.choice(cw_mins),
                "cw_max": cw_max, "retry_limit": rng.randint(0, 7),
                "data_airtime": rng.choice(data_airtimes),
                "ack_airtime": rng.choice([1, 20, 44])}

    n = rng.randint(0, 4)
    m = rng.randint(0 if n else 1, 3)
    duration = rng.randint(5_000, 50_000)
    config = {"n_regular": n, "phy": phy,
              "regular": edca([17, 60, 300, 2000], [0, 3, 15], 1023),
              "urllc": edca([17, 40, 200], [0, 1, 3], 15),
              "detection_delay": rng.choice([0, 3, 34, 43]),
              "urllc_mean_interarrival": rng.choice([100, 1_000, 10_000]),
              "sim_duration": duration, "warmup": rng.randint(0, duration // 2)}
    return {"scheme": rng.choice(["legacy", "proposed"]), "m": m,
            "seed": rng.randint(1, 10_000), "config": config}


GRID = [grid_point(scheme, d, m, seed, ack)
        for scheme, d in SCHEMES
        for m in (1, 5, 15, 40)
        for seed in (1, 2)
        for ack in (None, 20)]
_rng = random.Random(2020)
RANDOM = [random_point(_rng) for _ in range(100)]
POINTS = GRID + RANDOM


def label(point) -> str:
    return (f"{point['scheme']} M={point['m']} seed={point['seed']} "
            f"{json.dumps(point['config'])}")


def materialise(rev: str, dest: Path) -> Path:
    """REV's src/ under dest; returns that src directory."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=REPO,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


# -- the worker: runs in a subprocess against one tree ----------------------

def run_point(point) -> tuple[str, list]:
    """The summary row and trace lines of one point, in this process's tree."""
    from dataclasses import replace

    from btwifi.config import ScenarioConfig
    from btwifi.simulation import run_single
    from btwifi.sweep import summary_row

    cfg = ScenarioConfig()
    cfg = replace(cfg, **{key: replace(getattr(cfg, key), **value)
                          if isinstance(value, dict) else value
                          for key, value in point["config"].items()})
    res = run_single(cfg.run_config(point["scheme"], point["m"], point["seed"],
                                    trace=True))
    return summary_row(res.summary), res.trace_lines


def worker(dump_dir) -> None:
    """Read points from stdin; print the tree, then one JSON line per point
    with the row and the sha256 of row and trace.  With dump_dir, also
    write each trace there, as <index>.jsonl."""
    import btwifi
    print(json.dumps({"tree": str(Path(btwifi.__file__).resolve().parents[1])}))
    for i, point in enumerate(json.load(sys.stdin)):
        row, lines = run_point(point)
        trace = "".join(f"{line}\n" for line in lines)
        if dump_dir is not None:
            Path(dump_dir, f"{i}.jsonl").write_text(trace, encoding="utf-8")
        print(json.dumps({"row": row,
                          "row_sha": hashlib.sha256(row.encode()).hexdigest(),
                          "trace_sha": hashlib.sha256(trace.encode()).hexdigest()}),
              flush=True)


def start_worker(src: Path, points, dump_dir=None) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker"]
    if dump_dir is not None:
        cmd.append(str(dump_dir))
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    proc.stdin.write(json.dumps(points))
    proc.stdin.close()
    return proc


def collect(proc: subprocess.Popen, src: Path) -> list[dict]:
    lines = proc.stdout.read().splitlines()
    if proc.wait() != 0:
        raise RuntimeError(f"worker for {src} exited with {proc.returncode}")
    tree = json.loads(lines[0])["tree"]
    if Path(tree) != src.resolve():
        raise RuntimeError(f"worker for {src} imported btwifi from {tree}")
    return [json.loads(line) for line in lines[1:]]


def run_trees(base: Path, head: Path, points, dump=None) -> tuple[list, list]:
    """Both trees' results for points, the two workers running side by side.
    dump is an optional (base dir, head dir) pair for the traces."""
    dump = dump or (None, None)
    procs = [start_worker(src, points, d) for src, d in zip((base, head), dump)]
    return collect(procs[0], base), collect(procs[1], head)


# -- the comparison ------------------------------------------------------------

def explain(base: Path, head: Path, point) -> list[str]:
    """Re-run one point with its traces kept; name the first pair of records
    that differ and whether the traces are equal as multisets."""
    for path in (str(REPO / "src"), str(REPO / "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from test_ties import canonical_records

    with tempfile.TemporaryDirectory() as tmp:
        dirs = (Path(tmp, "base"), Path(tmp, "head"))
        for d in dirs:
            d.mkdir()
        run_trees(base, head, [point], dirs)
        old, new = (Path(d, "0.jsonl").read_text(encoding="utf-8").splitlines()
                    for d in dirs)
    out = []
    n = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b),
             min(len(old), len(new)))
    out.append(f"  first differing record, line {n + 1}:")
    out.append(f"    base: {old[n] if n < len(old) else '<end of trace>'}")
    out.append(f"    head: {new[n] if n < len(new) else '<end of trace>'}")
    same = canonical_records(old) == canonical_records(new)
    out.append("  as multisets: " + ("equal (only reordered within a microsecond)"
                                     if same else "different"))
    return out


def compare(base: Path, head: Path, points=POINTS) -> list[str]:
    """One report per point whose row or trace differs between the trees."""
    old, new = run_trees(base, head, points)
    reports = []
    for point, a, b in zip(points, old, new):
        rows, traces = a["row_sha"] != b["row_sha"], a["trace_sha"] != b["trace_sha"]
        if not (rows or traces):
            continue
        moved = " and ".join(what for what, hit in (("row", rows), ("trace", traces))
                             if hit)
        lines = [f"{label(point)}: differs in {moved}"]
        if rows:
            lines += [f"  base row: {a['row']}", f"  head row: {b['row']}"]
        if traces:
            lines += explain(base, head, point)
        reports.append("\n".join(lines))
    return reports


def main(argv: list[str]) -> int:
    if argv[:1] == ["--worker"]:
        worker(argv[1] if len(argv) > 1 else None)
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        base = materialise(rev, Path(tmp))
        reports = compare(base, REPO / "src")
    for report in reports:
        print(report)
    counted = f"{len(POINTS)} points ({len(GRID)} grid, {len(RANDOM)} random)"
    if reports:
        print(f"differential: {len(reports)} of {counted} differ from {rev}")
        return 1
    print(f"differential: {counted}, every row and trace identical to {rev}")
    return 0


# -- self-tests ----------------------------------------------------------------

SMALL = [grid_point(scheme, d, 15, 1) for scheme, d in (("legacy", 0), ("proposed", 3))]


def test_head_against_itself_shows_no_difference(tmp_path):
    base = materialise("HEAD", tmp_path)
    assert compare(base, REPO / "src") == []


def test_a_mutant_of_the_class_freeze_is_found(tmp_path):
    # An off-by-one in AccessClass.stop: a freeze takes no slot off the
    # counters when exactly one has elapsed.
    base = materialise("HEAD", tmp_path)
    mutant = tmp_path / "mutant"
    mutant.mkdir()
    head = materialise("HEAD", mutant)
    medium = head / "btwifi" / "medium.py"
    text = medium.read_text(encoding="utf-8")
    site = "            if k > 0:\n"
    assert text.count(site) == 1, "the mutation site moved; update the self-test"
    medium.write_text(text.replace(site, site.replace("0", "1")), encoding="utf-8")
    reports = compare(base, head, SMALL)
    assert len(reports) == len(SMALL)
    for report in reports:
        assert "differs in row and trace" in report
        assert "first differing record, line" in report
        assert "as multisets: different" in report


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
