"""BENCHMARK.json must name exactly the metrics the runner prints.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest

import layers
from common import ROOT

import run


class Spec(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end_metrics(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END_UNITS)

    def test_per_layer_metrics(self):
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]], layers.METRICS)

    def test_workloads(self):
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]}, set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
