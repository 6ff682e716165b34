#!/usr/bin/env python3
"""Committed-benchmark freshness check (ctest case `check_bench_fresh`).

The committed BENCH_*.json files are the record EXPERIMENTS.md quotes,
and they are only worth quoting if the code at HEAD still produces
them. Every field in them is virtual time or a deterministic count
(the simulator's clock does not depend on the host; none of these
benches writes a host-time field), so this check reruns each full bench
in a temporary directory and requires the fresh JSON to equal the
committed one field for field.

A failure means either the code drifted without anyone noticing, or a
change moved the numbers on purpose and the JSON was not regenerated:
rerun the bench from the repo root and commit its output.

Usage: check_bench_fresh.py <bench-binary-dir> [repo-root]
"""

import json
import os
import subprocess
import sys
import tempfile

# Benches whose full run is fast enough for every ctest pass (~1 s in
# total) and whose JSON the docs quote.
BENCHES = ["tpch_lite", "replication", "serving"]


def diff(committed, fresh, path, problems):
    """Appends one line per field that differs."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
            where = f"{path}.{key}" if path else key
            if key not in fresh:
                problems.append(f"{where}: missing from the fresh run")
            elif key not in committed:
                problems.append(f"{where}: not in the committed file")
            else:
                diff(committed[key], fresh[key], where, problems)
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            problems.append(
                f"{path}: {len(committed)} entries committed, "
                f"{len(fresh)} fresh")
            return
        for i, (a, b) in enumerate(zip(committed, fresh)):
            diff(a, b, f"{path}[{i}]", problems)
    elif committed != fresh:
        problems.append(f"{path}: committed {committed!r}, fresh {fresh!r}")


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    bench_dir = os.path.abspath(argv[1])
    root = os.path.abspath(
        argv[2] if len(argv) > 2
        else os.path.join(os.path.dirname(__file__), ".."))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="bench_fresh_") as tmp:
        for name in BENCHES:
            binary = os.path.join(bench_dir, f"bench_{name}")
            artifact = f"BENCH_{name}.json"
            run = subprocess.run([binary], cwd=tmp, capture_output=True,
                                 text=True)
            if run.returncode != 0:
                print(f"check_bench_fresh: bench_{name} exited "
                      f"{run.returncode}\n{run.stdout}{run.stderr}")
                failed += 1
                continue
            with open(os.path.join(root, artifact)) as f:
                committed = json.load(f)
            with open(os.path.join(tmp, artifact)) as f:
                fresh = json.load(f)
            problems = []
            diff(committed, fresh, "", problems)
            if problems:
                failed += 1
                print(f"check_bench_fresh: {artifact} is stale "
                      f"({len(problems)} field(s) differ):")
                for p in problems:
                    print(f"  {p}")
            else:
                print(f"check_bench_fresh: {artifact} ok")
    if failed:
        print(f"check_bench_fresh: FAILED ({failed} bench(es)); rerun "
              "them from the repo root and commit the JSON")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
