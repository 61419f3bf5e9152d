#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 layerbench/spread.py --workloads serve-read,churn \
        --seeds 1-10 [--trace 0] [--seconds S] [--json out.json]

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread: the
quartile distance as a share of the median. Each run's line gives its
wall time and the host steal time during it (from /proc/stat), which
tells a noisy run on a busy host from a slow program. With --trace 0 it also
prints each end-to-end metric's bound from BENCHMARK.json and whether
the spread stays under a third of it. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def steal_seconds():
    """Host steal time of this machine so far (the 8th cpu field of
    /proc/stat, in USER_HZ ticks), or None where it cannot be read."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="serve-read,batch-scan,churn")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=0,
                        help="run length (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", default="")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    if args.seconds <= 0:
        args.seconds = config["run_seconds"]
    if len(seeds(args.seeds)) < 2:
        parser.error("quartiles need at least two seeds")
    table = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds(args.seeds):
            steal0, t0 = steal_seconds(), time.time()
            r = run(workload, seed, args.seconds, args.trace)
            steal1, wall = steal_seconds(), time.time() - t0
            results.append(r)
            share = r["failed"] / r["attempted"]
            steal = "n/a" if steal0 is None else "%.1fs" % (steal1 - steal0)
            print("%s seed %d: correct=%s failed share=%r wall %.1fs "
                  "host steal %s" % (workload, seed, r["correct"], share,
                                     wall, steal), flush=True)
        rows = {}
        for name in sorted(results[0]["metrics"]):
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": values,
                          "unit": results[0]["metrics"][name]["unit"]}
            bound = bounds.get(name)
            flag = ""
            if args.trace == 0 and bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "OVER BOUND")
            print("  %-28s median %14.6g  q1 %14.6g  q3 %14.6g  spread "
                  "%6.3f  bound %s %s" % (name, med, q1, q3, spread,
                                          bound, flag), flush=True)
        table[workload] = rows
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1)


if __name__ == "__main__":
    main()
