"""Run bench/run.py over several workloads and seeds and summarise.

    python3 bench/report.py [--workloads a,b] [--seeds 1,2,3] [--seconds 10]
                            [--trace 0|1] [--out FILE]

Prints every metric of every workload by name and unit: the median over the
seeds, the quartiles, and the spread (third minus first quartile, as a share
of the median), plus the error rate over all runs.  --out also writes the
runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

RUN = os.path.join(workloads.BENCH_DIR, "run.py")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=workloads.ROOT)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[0].removeprefix("record "))
    return result


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench/report.py", description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", metavar="FILE")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {}
    failed = attempted = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, args.seconds, args.trace)
            attempted += r["attempted"]
            failed += r["failed"]
            runs.append(r)
            print(f"{workload} seed={seed} correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
        summary = summarise(runs)
        report[workload] = {"summary": summary, "runs": runs}
        print(f"{workload}: median [q1, q3] spread over seeds {seeds}")
        for name, s in summary.items():
            print(f"  {name:<36} {s['median']:.6g} {s['unit']:<8} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] {100 * s['spread']:.2f} %", flush=True)
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
