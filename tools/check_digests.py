#!/usr/bin/env python3
"""Fail when two checkouts make different tuning decisions.

Runs every workload of HEAD_DIR's BENCHMARK.json once in each of two source
trees (a base and a head checkout) and compares the `<workload>: digest <hex>`
line each run prints. The digest hashes every trial of the fixed passes, so a
change that should leave decisions alone (a refactor, a speedup) must leave it
unchanged. It depends on the seed only, not on the run length, so each run is
one second long.

    python3 tools/check_digests.py BASE_DIR HEAD_DIR [--seeds 1 2 3]

Each tree builds its own benchmark harness into its own `.bench_build`.
Exits 0 when every digest matches, 1 otherwise.
"""
import argparse
import json
import os
import re
import subprocess
import sys


def digest(tree, workload, seed):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # keep the two builds apart
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    m = re.search(r"^%s: digest (\S+)" % re.escape(workload), proc.stdout, re.M)
    if proc.returncode != 0 or not m:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return m.group(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = ap.parse_args()

    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for workload in workloads:
        for seed in args.seeds:
            base = digest(args.base, workload, seed)
            head = digest(args.head, workload, seed)
            same = base is not None and base == head
            ok &= same
            print("%-14s seed %-3d base %-17s head %-17s %s" %
                  (workload, seed, base, head, "same" if same else "DIFFERS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
