#!/usr/bin/env python3
"""Repository benchmark: one command per workload, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench_driver (the library from
src/ plus perfbench/driver/) under $CARGO_TARGET_DIR or .bench_build, writes
the workload's inputs from the seed (untimed, in a separate process), then
measures. Prints every metric by name with its unit and sample count, and as
the last line one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}

holding the BENCHMARK.json end_to_end metrics (--trace 0) or per_layer
metrics (--trace 1). Exits non-zero on any wrong answer, counter mismatch
or failed request. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREP_TIMEOUT_S = 60
RUN_OVERHEAD_S = 90  # Set-up, probes and checks on top of --seconds.

# Which end-to-end metric, on which workload, each per-layer metric should
# move. Printed with every traced run.
MOVES = {
    "graph.read_ms": "setup_s on every workload",
    "graph.condense_ms": "setup_s on embed-cold-dl and serve-q-dl",
    "core.build_ms": "setup_s on embed-cold-dl and serve-q-dl",
    "core.build_ms_t1": "setup_s on embed-cold-dl (thread scaling baseline)",
    "core.index_integers": "index_bytes and peak_rss_mb",
    "util.intersect_ns": "qps on embed-cold-dl; qps, p10_us on serve-batch-reload-hl",
    "core.label_query_ns": "qps on embed-cold-dl; qps, p10_us on serve-batch-reload-hl",
    "core.oracle_ns": "qps on embed-cold-dl; qps, p10_us on serve-batch-reload-hl",
    "core.index_ns": "qps on embed-cold-dl; qps, p10_us on serve-batch-reload-hl",
    "core.keys_per_query_mean": "qps on embed-cold-dl and serve-batch-reload-hl",
    "core.keys_per_query_p99": "p99_us on serve-batch-reload-hl",
    "core.range_reject_ratio": "qps on embed-cold-dl and serve-batch-reload-hl",
    "prefilter.hit_rate": "qps on embed-cold-dl (prefilter is off by default)",
    "server.feed_ns_per_query": "p10_us, p50_us, qps on serve-q-dl; qps on serve-batch-reload-hl",
    "server.acquire_ns": "p10_us, p50_us, qps on serve-q-dl",
    "server.acquire_ns_2t": "p10_us, p50_us, qps on serve-q-dl",
    "server.wire_minus_feed_us": "p10_us, p50_us on serve-q-dl and serve-batch-reload-hl",
    "snapshot.save_ms": "setup_s on serve-batch-reload-hl (prep side)",
    "snapshot.load_ms": "setup_s on serve-batch-reload-hl",
    "snapshot.load_rss_mb": "setup_s, peak_rss_mb on serve-batch-reload-hl",
    "snapshot.reload_server_ms": "reload_p50_ms on serve-batch-reload-hl",
    "snapshot.first_batch_after_reload_us": "p99_us on serve-batch-reload-hl",
    "client.lateness_ms_p50": "reload_p50_ms (load generator health)",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout=None):
    """Runs cmd with output to log_path; returns its exit code."""
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False).returncode
        except subprocess.TimeoutExpired:
            return -1


def build_driver(build_root):
    """Configures (once) and builds the driver; returns its path."""
    cmake_dir = os.path.join(build_root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
               cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log_path) != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("configure failed; see " + log_path)
    if run_logged(["cmake", "--build", cmake_dir, "-j", "4"], log_path) != 0:
        fail("build failed; see " + log_path)
    return os.path.join(cmake_dir, "perfbench_driver")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    contract = load_contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = build_driver(build_root)
    work = os.path.join(build_root, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    spans = os.path.join(build_root, "spans-%s.csv" % args.workload)
    os.makedirs(work)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", work]
        prep_log = os.path.join(work, "prep.log")
        if run_logged([driver, "prep"] + common, prep_log,
                      PREP_TIMEOUT_S) != 0:
            with open(prep_log) as f:
                sys.stderr.write(f.read())
            fail("input generation failed")
        try:
            proc = subprocess.run(
                [driver, "run"] + common +
                ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--spans", spans],
                stdout=subprocess.PIPE, text=True, check=False,
                timeout=args.seconds + RUN_OVERHEAD_S)
        except subprocess.TimeoutExpired:
            fail("measured run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])

    attempted = result["attempted"]
    failed = result["failed"]
    metrics = result["metrics"]
    problems = ["%s: %s" % (c["name"], c["detail"])
                for c in result["failed_checks"]]
    reported = {}
    for entry in wanted:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append("metric %s missing" % entry["name"])
        elif got["unit"] != entry["unit"]:
            problems.append("metric %s in %s, contract says %s" %
                            (entry["name"], got["unit"], entry["unit"]))
        else:
            reported[entry["name"]] = {"value": got["value"],
                                       "unit": got["unit"]}
    correct = proc.returncode == 0 and failed == 0 and not problems

    listed = {entry["name"] for entry in wanted}
    print("workload %s  seed %d  seconds %g  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for name in sorted(metrics):
        m = metrics[name]
        mark = "*" if name in listed else " "
        moves = ("  -> " + MOVES[name]) if args.trace and name in MOVES else ""
        print("%s %-38s %16.6g %-10s n=%d%s" %
              (mark, name, m["value"], m["unit"], m["samples"], moves))
    print("  %-38s %16.6g %-10s n=%d" %
          ("error_rate", failed / attempted if attempted else 1.0,
           "fraction", attempted))
    if args.trace:
        print("  spans written to %s" % spans)
    for problem in problems:
        print("FAILED " + problem)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": reported}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
