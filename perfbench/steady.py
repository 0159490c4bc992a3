#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--trace 0|1] [--out FILE] [--compare FILE]

Runs perfbench/run.py once per (workload, seed) and prints, per metric, the
median and quartiles of the runs and the spread (Q3 - Q1) / median against
the metric's BENCHMARK.json bound. A spread under a third of the bound is
"steady"; setup_s is exempt from the spread rule (only its median is
compared between sets of runs). Per-layer metrics have no bound; those that
do not repeat within a tenth are flagged "noisy". --out saves the raw
figures; --compare FILE checks that no median is worse than FILE's by more
than the bound. Exits non-zero on any failed run, spread over its bound,
or regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOISY = 0.1


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stdout.write(proc.stdout)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in contract["workloads"]])
    seconds = args.seconds or contract["run_seconds"]
    entries = contract["per_layer" if args.trace else "end_to_end"]
    previous = {}
    if args.compare:
        with open(args.compare) as f:
            previous = json.load(f)

    ok = True
    figures = {}
    for workload in workloads:
        runs = []
        ticks_before = cpu_ticks()
        for seed in parse_seeds(args.seeds):
            metrics = run_once(workload, seed, seconds, args.trace)
            if metrics is None:
                print("FAILED %s seed %d" % (workload, seed))
                ok = False
                continue
            runs.append(metrics)
            print("%s seed %d done" % (workload, seed), flush=True)
        if len(runs) < 2:
            continue
        figures[workload] = {e["name"]: [r[e["name"]] for r in runs]
                             for e in entries}
        print("\n%s: %d runs of %gs" % (workload, len(runs), seconds))
        ticks_after = cpu_ticks()
        if ticks_before and ticks_after:
            # Host steal: time the hypervisor ran something else on our
            # CPUs. It stalls requests and widens every timing spread.
            steal = ticks_after[0] - ticks_before[0]
            total = ticks_after[1] - ticks_before[1]
            print("host steal during these runs: %.1f%% of CPU time" %
                  (100.0 * steal / max(total, 1)))
        print("%-28s %14s %14s %14s %8s %6s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for entry in entries:
            name = entry["name"]
            median, q1, q3, s = spread(figures[workload][name])
            bound = entry.get("bound")
            if bound is None:
                verdict = "noisy" if abs(s) > NOISY else "steady"
            elif name == "setup_s":
                verdict = "exempt"
            elif s < bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                ok = False
            old = previous.get(workload, {}).get(name)
            if old and bound is not None:
                old_median = statistics.median(old)
                change = (median - old_median) / old_median
                worse = change if entry["better"] == "lower" else -change
                verdict += "  vs previous %+.3f" % change
                if worse > bound:
                    verdict += " REGRESSION"
                    ok = False
            print("%-28s %14.6g %14.6g %14.6g %8.4f %6s  %s" %
                  (name, median, q1, q3, s,
                   "-" if bound is None else "%g" % bound, verdict))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(figures, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
