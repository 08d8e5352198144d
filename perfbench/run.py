#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --self-test

Workloads: sim-sweep, sim-cluster (described in BENCHMARK.json); each run ends
with a checked pass of multi-turn chat on the real numeric path. A run does a
fixed amount of work, sized to BENCHMARK.json's run_seconds; --seconds is
passed through and recorded in the host header.
The library is compiled from ../src into .bench_build/perfbench (Release);
build output goes to stderr. The last line of stdout is the result JSON:
{"correct", "attempted", "failed", "metrics"}, with every end_to_end metric of
BENCHMARK.json (--trace 0) or every per_layer one (--trace 1), each with the
unit listed there. The exit code is the benchmark's: 0 when every output
check passed, 1 when one failed or the metric set differs from
BENCHMARK.json, 2 on bad arguments or a missing source tree.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("sim-sweep", "sim-cluster")
RUN_TIMEOUT_S = 175


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources (src/) not found next to perfbench/\n")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(BUILD, target)


def expected_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own checks")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_selftest")], cwd=ROOT).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("perfbench")
    # One trace file per workload (a traced sim-cluster run writes ~40 MB).
    trace_path = os.path.join(".bench_build", "traces", args.workload + ".json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-path", trace_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: driver exited with %d\n" % proc.returncode)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_units(args.trace)
    if units != expected:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s\n"
                         % (sorted(set(expected) - set(units)),
                            sorted(set(units) - set(expected))))
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
