#!/usr/bin/env python3
"""Runs one workload of the ccdb end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the engine and the benchmark
driver from source under .bench_build/ (the first run compiles; later runs
only check the build), runs the driver with every CCDB_* variable removed
from the environment (the engine's defaults), and prints the driver's
report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics, taken from a traced run. An
untraced twin of the traced run (same seed, same seconds) runs beside it at
the same time: the two rates give the tracing overhead under the same
machine conditions, and the twin must produce the same op and answer
digests. The spans of a traced run are written to
.bench_build/traces/<workload>-<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Set-up samples an untraced run takes in child processes spread over its
# loop, besides the build of the store it runs on; setup_s is their
# interquartile mean.
SETUP_SAMPLES = 24


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "database.h")):
        fail("engine sources not found under " + os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CCDB_")}


def drive(args, runs):
    """Runs the driver once per entry of `runs`, all at the same time.

    Each entry is (name, extra arguments). Returns one (report lines, result
    object) per entry, in order.
    """
    procs = []
    for name, extra in runs:
        run_dir = os.path.join(ROOT, ".bench_build", "run-%d-%s" % (os.getpid(), name))
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--dir", run_dir] + extra
        procs.append(subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                      text=True, env=clean_env(), cwd=ROOT))
    # The loop stops after --seconds; set-up, the close and the reopen come
    # on top, so allow generous slack before giving up.
    deadline = time.monotonic() + args.seconds + 90
    outputs = []
    try:
        for proc in procs:
            outputs.append(proc.communicate(timeout=max(1.0, deadline - time.monotonic())))
    except subprocess.TimeoutExpired:
        for proc in procs:
            proc.kill()
            proc.communicate()
        fail("driver timed out")
    results = []
    for proc, (out, err) in zip(procs, outputs):
        sys.stderr.write(err)
        lines = out.strip().splitlines()
        if not lines:
            fail("driver printed nothing (exit %d)" % proc.returncode)
        try:
            results.append((lines[:-1], json.loads(lines[-1])))
        except ValueError:
            fail("driver output does not end in JSON (exit %d)" % proc.returncode)
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()

    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir, "%s-%d.json" % (args.workload, args.seed))
        # An untraced twin of the run, at the same time so that both see the
        # same machine: the tracing overhead, and a determinism check.
        (report, result), (_, plain) = drive(args, [
            ("traced", ["--trace", "1", "--trace-out", trace_out]),
            ("untraced", ["--trace", "0"])])
        traced_rate = result["ops"] / result["loop_s"]
        plain_rate = plain["ops"] / plain["loop_s"]
        report.append("tracing overhead: %.2f ops/s traced, %.2f ops/s untraced at the same "
                      "time, %+.1f%%" % (traced_rate, plain_rate,
                                         100.0 * (plain_rate / traced_rate - 1.0)))
        same = (plain["digest_ops"] == result["digest_ops"]
                and plain["digest_answers"] == result["digest_answers"])
        report.append("traced and untraced digests %s" % ("agree" if same else "DIFFER"))
        correct = result["correct"] and plain["correct"] and same
        names = [m["name"] for m in spec["per_layer"]]
    else:
        [(report, result)] = drive(args, [
            ("untraced", ["--trace", "0", "--setup-samples", str(SETUP_SAMPLES)])])
        correct = result["correct"]
        names = [m["name"] for m in spec["end_to_end"]]

    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("driver did not report " + ", ".join(missing))
    for line in report:
        print(line)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
