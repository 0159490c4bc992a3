#!/usr/bin/env python3
"""Compares a bench_all JSON report against a committed baseline.

    python3 scripts/compare_bench.py BASELINE CURRENT

Index sizes are deterministic (every build is byte-identical at any thread
count), so for every cell -- (experiment, dataset, method) -- that finished
on both sides, `index_integers` and `index_bytes` must be equal. Whether a
cell finishes within its wall-clock budget is not deterministic, so a cell
that finished on one side and not on the other (a DNF flip) is listed but
does not fail the comparison.

Exits 1 on any size difference, on a cell or experiment present on one
side only, or on any change to Table 1's dataset inventory; 0 otherwise.
Standard library only.
"""

import json
import sys

SIZE_FIELDS = ("index_integers", "index_bytes")


def load(path):
    with open(path) as f:
        return json.load(f)


def finished(record):
    return not record.get("budget_exceeded") and record.get("value") is not None


def cells(experiment):
    """The experiment's records keyed by (dataset, method)."""
    return {(r["dataset"], r["method"]): r for r in experiment.get("records", [])}


def compare(baseline, current):
    """Returns (failures, flips, compared): lists of lines and a count."""
    failures = []
    flips = []
    compared = 0
    base_experiments = {e["id"]: e for e in baseline["experiments"]}
    cur_experiments = {e["id"]: e for e in current["experiments"]}
    for eid in sorted(base_experiments.keys() - cur_experiments.keys()):
        failures.append("experiment %s: missing from the current report" % eid)
    for eid in sorted(cur_experiments.keys() - base_experiments.keys()):
        failures.append("experiment %s: not in the baseline" % eid)

    for eid, base in base_experiments.items():
        cur = cur_experiments.get(eid)
        if cur is None:
            continue
        if base.get("kind") == "inventory" or cur.get("kind") == "inventory":
            if base.get("datasets") != cur.get("datasets"):
                failures.append("experiment %s: the dataset inventory changed"
                                % eid)
        base_cells = cells(base)
        cur_cells = cells(cur)
        for key in sorted(base_cells.keys() - cur_cells.keys()):
            failures.append("%s %s/%s: cell missing from the current report"
                            % ((eid,) + key))
        for key in sorted(cur_cells.keys() - base_cells.keys()):
            failures.append("%s %s/%s: cell not in the baseline"
                            % ((eid,) + key))
        for key in sorted(base_cells.keys() & cur_cells.keys()):
            b = base_cells[key]
            c = cur_cells[key]
            if finished(b) != finished(c):
                flips.append("%s %s/%s: %s in the baseline, %s now" % (
                    (eid,) + key +
                    ("finished" if finished(b) else "DNF",
                     "finished" if finished(c) else "DNF")))
                continue
            if not finished(b):
                continue
            compared += 1
            for field in SIZE_FIELDS:
                if b.get(field) != c.get(field):
                    failures.append("%s %s/%s: %s %s in the baseline, %s now"
                                    % ((eid,) + key +
                                       (field, b.get(field), c.get(field))))
    return failures, flips, compared


def main(argv):
    if len(argv) != 3:
        sys.stderr.write("usage: compare_bench.py BASELINE CURRENT\n")
        return 2
    failures, flips, compared = compare(load(argv[1]), load(argv[2]))
    for line in flips:
        print("DNF flip (not a failure): " + line)
    for line in failures:
        print("MISMATCH: " + line)
    print("compare_bench: %d cells finished on both sides, %d DNF flips, "
          "%d mismatches" % (compared, len(flips), len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
