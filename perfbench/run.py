#!/usr/bin/env python3
"""Benchmark of the PRISMA database machine (see perfbench/README.md).

    python3 perfbench/run.py --workload oltp_mix --seed 42 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs the benchmark binary on one workload. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics; the last stdout line is the JSON result either way.

    python3 perfbench/run.py --workload oltp_mix --seed 42 --seed-spread

runs five consecutive seeds and prints the spread of the virtual metrics
next to the first seed's values. --smoke shrinks every workload to a
seconds-long run for the benchmark's own tests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oltp_mix", "point_lookup", "olap_64pe")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 700  # Leaves the first run its 175 s inside 900 s.


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no PRISMA sources at", os.path.join(ROOT, "src"))
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "prisma_perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed:", err)
            return None
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return None
    binary = os.path.join(out, "prisma_perfbench")
    return binary if os.path.isfile(binary) else None


def run_binary(binary, workload, seed, seconds, trace, smoke):
    """Runs one measurement; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The final JSON line of a benchmark run, validated, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    return result


def report_of(lines):
    for line in lines:
        if line.startswith('{"report":'):
            return json.loads(line)["report"]
    return {}


def seed_spread(binary, workload, first_seed, smoke):
    """Virtual metrics over five seeds: value at the first, and spread."""
    values = {}
    for seed in range(first_seed, first_seed + 5):
        code, lines = run_binary(binary, workload, seed, 1, 0, smoke)
        result = parse_result(lines)
        if code != 0 or result is None:
            log(f"perfbench: seed {seed} failed")
            return 1
        merged = dict(report_of(lines))
        merged.update(result["metrics"])
        for name in ("p50_ms", "p99_ms", "write_p99_ms", "knee_qps",
                     "error_rate"):
            if name in merged:
                values.setdefault(name, []).append(merged[name]["value"])
    print(f"{workload}: virtual metrics over seeds "
          f"{first_seed}..{first_seed + 4}")
    print(f"  {'metric':<14} {'seed ' + str(first_seed):>12} {'min':>12}"
          f" {'median':>12} {'max':>12} {'(max-min)/med':>14}")
    for name, vals in values.items():
        med = statistics.median(vals)
        rel = (max(vals) - min(vals)) / med if med else 0.0
        print(f"  {name:<14} {vals[0]:>12.6g} {min(vals):>12.6g}"
              f" {med:>12.6g} {max(vals):>12.6g} {rel:>14.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seed-spread", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        return 2
    if args.seed_spread:
        return seed_spread(binary, args.workload, args.seed, args.smoke)
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds,
                             args.trace, args.smoke)
    result = parse_result(lines)
    if result is None:
        for line in lines:
            log(line)
        log("perfbench: the benchmark printed no valid result")
        return code or 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
