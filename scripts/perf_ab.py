#!/usr/bin/env python3
"""A/B host-cost comparison of a git revision against the working tree.

    python3 scripts/perf_ab.py --base HEAD --pairs 10 --seed 42 --seconds 10

Extracts the base revision into a temporary checkout (git archive) and runs
each side's own perfbench/run.py with its own CARGO_TARGET_DIR, so both
binaries are built from their own sources and neither touches .bench_build.
For every workload it runs N pairs, alternating which side goes first, and
prints, for each host metric (host_us_per_stmt, setup_s and peak_rss_mb;
all lower-is-better), each side's median and quartiles, how
many pairs the working tree won, and whether the median gain exceeds the
base's interquartile range. It also reports whether the virtual end-to-end
figures (p50_ms, p99_ms, answered_frac, attempted/failed) are identical on
every run of both sides, and exits 1 when a run fails or they are not.

--work-dir keeps the checkout and both build trees there for reuse.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("oltp_mix", "point_lookup", "olap_64pe")
VIRTUAL = ("p50_ms", "p99_ms", "answered_frac")
HOST = ("host_us_per_stmt", "setup_s", "peak_rss_mb")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def checkout(rev, dest):
    """Extracts `rev` of this repository into `dest` (once)."""
    if os.path.isfile(os.path.join(dest, "perfbench", "run.py")):
        return
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)


def run_side(side, workload, args):
    """One perfbench run; returns ({metric: value}, virtual signature)."""
    env = dict(os.environ, CARGO_TARGET_DIR=side["target"])
    cmd = [sys.executable, os.path.join(side["root"], "perfbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{side['name']} {workload}: exit "
                           f"{done.returncode}")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    signature = tuple(metrics[name]["value"] for name in VIRTUAL) + (
        result["attempted"], result["failed"], result["correct"])
    return {name: metrics[name]["value"] for name in HOST}, signature


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(workload, metric, values, wins, pairs):
    """Prints one metric's medians, quartiles, wins and IQR test."""
    base_q = quartiles(values["base"])
    head_q = quartiles(values["head"])
    base_iqr = base_q[2] - base_q[0]
    gain = base_q[1] - head_q[1]
    change = -gain / base_q[1] if base_q[1] else 0.0
    print(f"  {metric}")
    for name, (q1, q2, q3) in (("base", base_q), ("head", head_q)):
        print(f"    {name:<5} median {q2:>12.6g}  q1 {q1:>12.6g}  "
              f"q3 {q3:>12.6g}")
    print(f"    head wins {wins}/{pairs}; median change {change:+.1%}; "
          f"gain {'>' if gain > base_iqr else '<='} base IQR "
          f"({gain:.6g} vs {base_iqr:.6g})")
    print(f"    | {workload} | {metric} | {base_q[1]:.6g} [{base_q[0]:.6g}, "
          f"{base_q[2]:.6g}] | {head_q[1]:.6g} [{head_q[0]:.6g}, "
          f"{head_q[2]:.6g}] | {change:+.1%} | {wins}/{pairs} |")


def compare(workload, sides, args):
    """Runs the pairs of one workload and prints its summary."""
    values = {m: {side["name"]: [] for side in sides} for m in HOST}
    wins = dict.fromkeys(HOST, 0)
    signatures = set()
    for pair in range(args.pairs):
        order = sides if pair % 2 == 0 else sides[::-1]
        got = {}
        for side in order:
            got[side["name"]], signature = run_side(side, workload, args)
            signatures.add(signature)
        for metric in HOST:
            for name in got:
                values[metric][name].append(got[name][metric])
            wins[metric] += int(got["head"][metric] < got["base"][metric])
        log(f"{workload} pair {pair + 1}/{args.pairs}: " + "  ".join(
            f"{m} base {got['base'][m]:.6g} head {got['head'][m]:.6g}"
            for m in HOST))

    print(f"{workload}: {args.pairs} alternating pairs, seed {args.seed}, "
          f"{args.seconds:g} s")
    for metric in HOST:
        summarize(workload, metric, values[metric], wins[metric], args.pairs)
    identical = len(signatures) == 1
    print(f"  p50_ms/p99_ms/answered_frac/attempted/failed identical: "
          f"{'yes' if identical else 'NO'}")
    if not identical:
        for signature in sorted(signatures, key=str):
            print(f"    {signature}")
    return identical


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision to compare against")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default all three")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--work-dir",
                        help="keep the checkout and build trees here")
    args = parser.parse_args()
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be >= 2 and --seconds > 0")

    work = args.work_dir or tempfile.mkdtemp(prefix="perf_ab-")
    work = os.path.abspath(work)
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", args.base],
                             stdout=subprocess.PIPE, text=True,
                             check=True).stdout.strip()
        base_root = os.path.join(work, "base-" + rev[:12])
        checkout(rev, base_root)
        sides = [
            {"name": "base", "root": base_root,
             "target": os.path.join(work, "target-base-" + rev[:12])},
            {"name": "head", "root": ROOT,
             "target": os.path.join(work, "target-head")},
        ]
        log(f"perf_ab: base {rev[:12]} vs the working tree in {work}")
        identical = True
        for workload in args.workload or WORKLOADS:
            identical &= compare(workload, sides, args)
        return 0 if identical else 1
    except (RuntimeError, subprocess.CalledProcessError) as err:
        log("perf_ab:", err)
        return 1
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
