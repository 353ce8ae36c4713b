"""Command-line entry point.

    simulate --config scenario.cfg [--out summary.csv] [--trace-dir DIR]
             [--scheme legacy|proposed] [--m INT] [--seed INT]
             [--jobs INT] [--curves-dir DIR]

--scheme/--m/--seed restrict the grid so any single CSV row can be
reproduced in isolation.  Exit codes: 0 success (and --help), 1 a usage,
configuration or output error, each found before any run, 2 a run failed;
stderr names its grid point.  A command that exits 1 or 2 leaves no summary
CSV, trace or curve file; an empty --trace-dir or --curves-dir may remain.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import SCHEMES, ConfigError, ScenarioConfig, read_scenario, validate
from .sweep import SweepError, write_outputs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on a usage error, which here means a run failed
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="simulate",
        description="Run the Wi-Fi busy-tone priority-access simulator over a "
                    "(scheme x M x seed) grid and write a summary CSV.")
    p.add_argument("--config", metavar="FILE",
                   help="scenario file (omit for the default scenario)")
    p.add_argument("--out", metavar="CSV", default="summary.csv",
                   help="summary CSV path (default: %(default)s)")
    p.add_argument("--trace-dir", metavar="DIR",
                   help="write one JSONL event trace per run into DIR")
    p.add_argument("--scheme", choices=SCHEMES,
                   help="restrict the sweep to one scheme")
    p.add_argument("--m", type=int, metavar="INT",
                   help="restrict the sweep to one URLLC station count")
    p.add_argument("--seed", type=int, metavar="INT",
                   help="restrict the sweep to one seed")
    p.add_argument("--jobs", type=int, default=1, metavar="INT",
                   help="worker processes for independent runs (default: 1)")
    p.add_argument("--curves-dir", metavar="DIR",
                   help="also write gnuplot-ready (M, metric) files into DIR")
    return p


def load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    cfg = read_scenario(args.config)
    overrides = {}
    if args.scheme is not None:
        overrides["schemes"] = (args.scheme,)
    if args.m is not None:
        overrides["m_list"] = (args.m,)
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if overrides:
        cfg = replace(cfg, **overrides)
        problems = validate(cfg)
        if problems:
            raise ConfigError([(0, p) for p in problems])
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_scenario(args)
    except ConfigError as exc:
        print(f"simulate: config error: {exc}", file=sys.stderr)
        return 1
    if args.jobs < 1:
        print("simulate: --jobs must be >= 1", file=sys.stderr)
        return 1
    try:
        summaries = write_outputs(cfg, args.out, args.jobs, args.trace_dir,
                                  args.curves_dir)
    except SweepError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"simulate: cannot write output: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(summaries)} run summaries to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
