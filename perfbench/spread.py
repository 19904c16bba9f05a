#!/usr/bin/env python3
"""Run perfbench once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload vt-online --seeds 1 2 3 4 5 [--trace 0]

For every metric: the median over the seeds and (Q3 - Q1) / median, with
the quartiles from statistics.quantiles(values, n=4).  That is the spread
the bounds in BENCHMARK.json are set against.  Extra arguments after --
are passed to run.py (e.g. -- --seconds 10).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("extra", nargs="*", help="arguments passed on to run.py")
    args = parser.parse_args()

    values = {}
    for seed in args.seeds:
        command = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
                   "--trace", str(args.trace)] + args.extra
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not result["correct"]:
            print("seed %d: run failed (exit %d)" % (seed, done.returncode))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        mid = statistics.median(series)
        if len(series) > 1:
            q1, _, q3 = statistics.quantiles(series, n=4)
            share = "%.4f" % ((q3 - q1) / mid) if mid else "n/a"
        else:
            share = "n/a"
        print("%-36s median %-14.6g spread %s" % (name, mid, share))
    return 0


if __name__ == "__main__":
    sys.exit(main())
