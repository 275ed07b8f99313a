#!/usr/bin/env python3
"""Profiler-cost benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a taskprof checkout.  The first call builds the
benchmark and the libraries it links into .bench_build/perfbench.  A run
starts PROCESSES driver processes one after another; each sets up,
measures its share of S seconds and prints its raw samples.  This script
pools the samples, prints a table with medians, sample counts and the
highest percentile that has at least ten samples beyond it, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics.  The exit code is 0 only when every check passed.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
SELFTEST = os.path.join(BUILD_DIR, "perfbench_selftest")

# Processes per run.  Host speed shifts from process to process (thread
# placement, memory layout), so one run pools several short processes
# instead of trusting one long one; see README.md, "Steadiness".
PROCESSES = 6
# Budget for all driver processes of a run, build excluded.
DEADLINE_S = 170.0


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no taskprof sources at {ROOT}/src; run from a full checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 4),
                  "--target", "perfbench_driver", "perfbench_selftest"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed", 3)


def percentile_with_tail(values, tail=10):
    """Highest integer percentile with at least `tail` samples beyond it,
    as (p, value) by nearest rank; None when even p50 lacks the tail."""
    n = len(values)
    p = math.floor(100 * (1 - tail / n)) if n else 0
    if p <= 50:
        return None
    ordered = sorted(values)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


def run_driver(args, index, seconds, scratch, deadline):
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}-p{index}.json")]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"driver process {index} exceeded the time budget", 4)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"driver process {index} exited {done.returncode} without a result", 5)
    if done.returncode != 0 and result.get("failed", 0) == 0:
        die(f"driver process {index} exited {done.returncode}", 5)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the generator determinism test")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die(f"missing {spec_path}")
    with open(spec_path) as f:
        spec = json.load(f)

    if args.self_test:
        build()
        sys.exit(subprocess.run([SELFTEST]).returncode)

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        die(f"--workload must be one of {', '.join(workloads)}")
    if args.seed is None or args.seed < 0 or not args.seconds or args.seconds <= 0:
        die("--seed N (N >= 0) and --seconds S (S > 0) are required")

    build()
    deadline = time.monotonic() + DEADLINE_S

    scratch = os.path.join(ROOT, ".bench_build", "scratch", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        results = [run_driver(args, i, args.seconds / PROCESSES, scratch, deadline)
                   for i in range(PROCESSES)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for failure in r["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)

    # Raw seconds per mode pool all processes' samples; set-up time and peak
    # memory are one value per process.  A slowdown sample <mode>_x divides
    # a mode's time by the plain time of the same round, which cancels the
    # host's drift in speed between rounds, processes and runs.  The
    # single-threaded post-mortem pass is divided by the single-worker plain
    # run, so both sides run on one core.
    values = {"setup_s": [r["setup_s"] for r in results],
              "peak_rss_mb": [r["peak_rss_mb"] for r in results]}
    for mode in results[0]["samples"]:
        base = "serial_s" if mode == "postmortem_s" else "plain_s"
        values[mode] = [x for r in results for x in r["samples"][mode]]
        values[mode[:-2] + "_x"] = [
            t / p for r in results
            for t, p in zip(r["samples"][mode], r["samples"][base])]
    for m in spec["per_layer"]:
        per_process = [r["layers"][m["name"]] for r in results
                       if r["layers"].get(m["name"]) is not None]
        if per_process:
            values[m["name"]] = per_process

    print(f"workload {args.workload}, seed {args.seed}, {PROCESSES} processes, "
          f"{args.seconds:g} s measured")
    print(f"{'metric':<40} {'median':>14} {'unit':<14} {'n':>5}  tail")

    def show(name, unit):
        samples = values[name]
        tail = percentile_with_tail(samples)
        tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "-"
        print(f"{name:<40} {statistics.median(samples):>14.6g} {unit:<14} "
              f"{len(samples):>5}  {tail_text}")

    if not args.trace:
        print("-- raw seconds per mode (not gated: they follow host speed)")
        for mode in results[0]["samples"]:
            show(mode, "s")
        print("-- gated")
    metrics = {}
    missing = []
    for m in spec["per_layer"] if args.trace else spec["end_to_end"]:
        if not values.get(m["name"]):
            missing.append(m["name"])
            continue
        show(m["name"], m["unit"])
        metrics[m["name"]] = {"value": statistics.median(values[m["name"]]),
                              "unit": m["unit"]}
    print(f"operations attempted {attempted}, failed {failed}")

    correct = failed == 0 and not missing and all(
        math.isfinite(v["value"]) for v in metrics.values())
    if not args.trace:
        correct = correct and all(v["value"] > 0 for v in metrics.values())
    if missing:
        print(f"perfbench: metrics missing: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
