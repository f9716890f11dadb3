#!/usr/bin/env python3
"""Steadiness check: repeats a workload and prints each metric's spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--sets 1]
                                [--first-seed 1] [--seconds S] [--trace 0]

Runs perfbench/run.py --runs times per set, each run with its own seed
(set k uses seeds first-seed + k*runs ...). For every metric it prints the
median and quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. With
--sets 2 it also prints how far the second set's median moved from the
first's, in the metric's worse direction, against the same bound. Run it
from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit("seed %d: run.py printed no result (exit %d)" % (seed, done.returncode))
    for line in lines[:-1]:
        if line.startswith("  ") or line.startswith("digest"):
            print("  seed %d |%s" % (seed, line))
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        print("seed %d: run failed (exit %d, failed %d)" % (seed, done.returncode,
                                                              result["failed"]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    sets = []
    for k in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            runs.append(run_once(args.workload, seed, seconds, args.trace))
            print("set %d seed %d: %s" % (k + 1, seed, json.dumps(runs[-1])), flush=True)
        sets.append(runs)

    print("\n%s, %d runs per set, %d s each" % (args.workload, args.runs, seconds))
    print("%-32s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for m in metrics:
        bound = m.get("bound")
        medians = []
        for runs in sets:
            q1, median, q3, spread = summarize([r[m["name"]] for r in runs])
            medians.append(median)
            print("%-32s %12.6g %12.6g %12.6g %8.3f %6s" % (
                m["name"], q1, median, q3, spread, "-" if bound is None else bound))
        if len(medians) > 1 and medians[0]:
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if m["better"] == "lower" else -change
            print("%-32s second median %+.3f worse than first" % ("", worse))


if __name__ == "__main__":
    main()
