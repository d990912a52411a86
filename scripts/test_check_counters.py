"""Verdicts of check_counters.py on hand-made Table 1 files."""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_counters.py")


def row(unit, method, conflicts):
    return {
        "unit": unit,
        "method": method,
        "solved": True,
        "verified": True,
        "cost": 10,
        "gates": 4,
        "depth": 2,
        "time": 0.5,
        "counters": {
            "eco.sat_calls": 12,
            "sat.conflicts": conflicts,
            "sat.propagations": 4000,
            "sat.decisions": 300,
            "sat.solves": 12,
        },
    }


BASELINE = {
    "bench": "table1",
    "rows": [row("unit1", "baseline", 1000), row("unit1", "exact", 2000)],
}


class CheckCounters(unittest.TestCase):
    def run_gate(self, fresh, *flags):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, data in (("fresh.json", fresh), ("baseline.json", BASELINE)):
                path = os.path.join(d, name)
                with open(path, "w") as f:
                    json.dump(data, f)
                paths.append(path)
            done = subprocess.run(
                [sys.executable, SCRIPT, *paths, *flags], capture_output=True, text=True
            )
        return done.returncode

    def test_exact_passes_an_identical_file(self):
        self.assertEqual(self.run_gate(copy.deepcopy(BASELINE), "--exact"), 0)

    def test_exact_fails_fewer_conflicts_the_tolerance_gate_accepts(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"][0]["counters"]["sat.conflicts"] = 500
        self.assertEqual(self.run_gate(fresh), 0)
        self.assertEqual(self.run_gate(fresh, "--exact"), 1)

    def test_exact_fails_when_the_row_sets_differ(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"].pop()
        self.assertEqual(self.run_gate(fresh, "--exact"), 1)

    def test_tolerance_gate_fails_a_ten_percent_rise(self):
        fresh = copy.deepcopy(BASELINE)
        fresh["rows"][1]["counters"]["sat.conflicts"] = 2200
        self.assertEqual(self.run_gate(fresh), 1)


if __name__ == "__main__":
    unittest.main()
