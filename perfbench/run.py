#!/usr/bin/env python3
"""Host-speed benchmark of the DRAM controller simulator.

Builds perfbench/ (which compiles the library from src/) as a Release
CMake package in .bench_build/ at the repository root, then runs one
workload in its own process:

    python3 perfbench/run.py --workload ch1_event_rw --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is the result JSON. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones (see README.md).

    python3 perfbench/run.py --all [--seconds 20] [--trace 0|1]

runs every workload, each in its own process, and prints one summary
row per workload (with --trace 1, each workload's layer table).

    python3 perfbench/run.py --self-test

runs every workload at a tiny size and checks that it completes, that
its statistics digest repeats across batches and processes, traced or
not, and that its layer rows sum to the traced wall time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hostbench")
WORKLOADS = ["ch1_event_rw", "ch1_cycle_rw", "hmc64_read", "cpu4_closed"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args):
    """Run hostbench; return (exit code, stdout lines)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("hostbench timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def line_value(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def self_test():
    names = None
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json) as f:
            spec = json.load(f)
        names = {0: [m["name"] for m in spec["end_to_end"]],
                 1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for w in WORKLOADS:
        digests = []
        for trace in (1, 1, 0):
            code, lines = run_binary(
                ["--workload", w, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--scale", "0.02"])
            tag = "%s --trace %d" % (w, trace)
            if code != 0 or not lines:
                problems.append(tag + ": exit code %d" % code)
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(tag + ": not correct")
            if names is not None and \
                    sorted(result["metrics"]) != sorted(names[trace]):
                problems.append(tag + ": metric names differ from "
                                "BENCHMARK.json")
            layer_sum = line_value(lines, "layer_sum:") or ""
            if trace == 1 and not layer_sum.endswith(": ok"):
                problems.append(tag + ": layer rows do not sum to wall")
            digest = line_value(lines, "digest ")
            if digest is None or "identical" not in digest:
                problems.append(tag + ": digest differs between batches")
            else:
                digests.append(digest.split()[0])
        if len(set(digests)) > 1:
            problems.append(w + ": digest differs between processes")
        print("%-13s digests %s" % (w, " ".join(digests)))
    for p in problems:
        print("FAIL " + p)
    print("self-test: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def run_all(opts):
    """Every workload in its own process; one summary row each."""
    failed = False
    host = None
    rows = []
    for w in WORKLOADS:
        code, lines = run_binary(
            ["--workload", w, "--seed", str(opts.seed), "--seconds",
             str(opts.seconds), "--trace", str(opts.trace)])
        if code != 0 or not lines:
            print("%s: exit code %d" % (w, code))
            failed = True
            continue
        result = json.loads(lines[-1])
        failed = failed or not result["correct"]
        host = host or lines[0]
        digest = (line_value(lines, "digest ") or "?").split()[0]
        if opts.trace:
            print("== %s (correct=%s, digest %s)" %
                  (w, result["correct"], digest))
            start = next(i for i, l in enumerate(lines)
                         if l.startswith("per-layer"))
            print("\n".join(lines[start:-1]) + "\n")
        else:
            m = result["metrics"]
            rows.append("%-13s %14.1f %10.6f %12.3f %8s  %s" % (
                w, m["req_per_s"]["value"], m["setup_s"]["value"],
                m["peak_rss_mb"]["value"], result["correct"], digest))
    if host:
        print(host)
    if rows:
        print("%-13s %14s %10s %12s %8s  %s" % (
            "workload", "req_per_s", "setup_s", "peak_rss_mb", "correct",
            "digest"))
        print("\n".join(rows))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    opts = ap.parse_args()
    if not (opts.self_test or opts.all) and opts.workload is None:
        fail("one of --workload, --all or --self-test is required")

    build()
    if opts.self_test:
        return self_test()
    if opts.all:
        return run_all(opts)

    code, lines = run_binary(
        ["--workload", opts.workload, "--seed", str(opts.seed),
         "--seconds", str(opts.seconds), "--trace", str(opts.trace)])
    if code != 0:
        print("\n".join(lines), file=sys.stderr)
        fail("hostbench exited with code %d" % code)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
