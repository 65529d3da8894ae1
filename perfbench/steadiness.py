#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds per workload and
report, per end-to-end metric, the median and the quartile spread as a
share of the median against the bound BENCHMARK.json fixes.

  python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                  [--workload NAME ...] [--out FILE]

Run from the repository root. Runs are sequential. A spread at or under
a third of the bound is steady; over the bound fails. setup_s spreads
are shown but only its median is bounded. --out appends every run's
result line to FILE as JSON, for a ledger.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import analysis  # noqa: E402


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--out")
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failed = False
    for workload in names:
        values = {m: [] for m in bounds}
        started = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed",
                                    str(seed), "--seconds",
                                    str(bench["run_seconds"]),
                                    "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (workload, seed,
                                                  out.returncode,
                                                  out.stderr[-2000:]))
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload,
                                        "seed": seed,
                                        "result": result}) + "\n")
            if not result["correct"]:
                print("%s seed %d: incorrect result" % (workload, seed))
                failed = True
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        took = time.monotonic() - started
        print("%s: %d runs in %.0f s (%.1f s per run)" % (
            workload, args.runs, took, took / args.runs))
        for m, vals in values.items():
            s = analysis.spread(vals)
            verdict = ("steady" if s <= bounds[m] / 3 else
                       "within bound" if s <= bounds[m] else "TOO WIDE")
            if m == "setup_s":
                verdict = "median only"
            elif s > bounds[m]:
                failed = True
            print("  %-12s median %12.6g  spread %6.3f  bound %.2f  %s"
                  % (m, statistics.median(vals), s, bounds[m], verdict))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
