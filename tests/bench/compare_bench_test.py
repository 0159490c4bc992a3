#!/usr/bin/env python3
"""Runs scripts/compare_bench.py on the hand-made reports beside this file.

    python3 tests/bench/compare_bench_test.py

A size mismatch in a cell finished on both sides must fail; a cell that
finished on one side only (a DNF flip) must be listed and pass. Missing
cells and a changed Table 1 inventory, derived from the same baseline,
must fail too. Standard library only.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCRIPT = os.path.join(ROOT, "scripts", "compare_bench.py")
FIXTURES = os.path.join(HERE, "compare_bench")
BASELINE = os.path.join(FIXTURES, "baseline.json")


def run(current):
    proc = subprocess.run([sys.executable, SCRIPT, BASELINE, current],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    return proc.returncode, proc.stdout


class CompareBenchTest(unittest.TestCase):
    def derived(self, edit):
        """A copy of the baseline changed by `edit`, in a temporary file."""
        with open(BASELINE) as f:
            report = json.load(f)
        edit(report)
        handle = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        with handle:
            json.dump(report, handle)
        self.addCleanup(os.unlink, handle.name)
        return handle.name

    def test_identical_reports_pass(self):
        code, out = run(BASELINE)
        self.assertEqual(code, 0, out)
        self.assertIn("5 cells finished on both sides, 0 DNF flips, "
                      "0 mismatches", out)

    def test_size_mismatch_fails(self):
        code, out = run(os.path.join(FIXTURES, "size_mismatch.json"))
        self.assertEqual(code, 1, out)
        self.assertIn("MISMATCH: fig3 arxiv/DL: index_integers 879176 in the "
                      "baseline, 879177 now", out)
        self.assertIn("MISMATCH: fig3 arxiv/DL: index_bytes", out)

    def test_dnf_flip_is_reported_only(self):
        code, out = run(os.path.join(FIXTURES, "dnf_flip.json"))
        self.assertEqual(code, 0, out)
        self.assertIn("DNF flip (not a failure): fig3 arxiv/2HOP: DNF in the "
                      "baseline, finished now", out)
        self.assertIn("DNF flip (not a failure): fig3 kegg/2HOP: finished in "
                      "the baseline, DNF now", out)
        self.assertNotIn("MISMATCH", out)

    def test_missing_cell_fails(self):
        def drop_cell(report):
            report["experiments"][1]["records"].pop()
        code, out = run(self.derived(drop_cell))
        self.assertEqual(code, 1, out)
        self.assertIn("fig3 kegg/DL: cell missing from the current report",
                      out)

    def test_missing_experiment_fails(self):
        def drop_experiment(report):
            report["experiments"].pop()
        code, out = run(self.derived(drop_experiment))
        self.assertEqual(code, 1, out)
        self.assertIn("experiment fig3: missing from the current report", out)

    def test_inventory_change_fails(self):
        def grow_graph(report):
            report["experiments"][0]["datasets"][0]["edges"] += 1
        code, out = run(self.derived(grow_graph))
        self.assertEqual(code, 1, out)
        self.assertIn("experiment table1: the dataset inventory changed", out)


if __name__ == "__main__":
    unittest.main()
