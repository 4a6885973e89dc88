#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

Run from the repository root (builds the benchmark first if needed):

    python3 simbench/test_simbench.py
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own runner)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def bench(*args):
    """Run the benchmark binary; return (SIMBENCH_RECORD, result)."""
    out = subprocess.run([str(run.BINARY), *args], env=run.child_env(),
                         check=True, capture_output=True,
                         text=True).stdout.splitlines()
    record = next(line for line in out
                  if line.startswith("SIMBENCH_RECORD "))
    return json.loads(record.split(" ", 1)[1]), json.loads(out[-1])


def stream_hash(workload, seed):
    out = subprocess.run([str(run.BINARY), "--workload", workload,
                          "--seed", str(seed), "--stream-hash"],
                         env=run.child_env(), check=True,
                         capture_output=True, text=True).stdout
    return out.split()[-1]


class SimbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        cls.per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        cls.workloads = [w["name"] for w in spec["workloads"]]

    def test_metric_names_match_benchmark_json(self):
        for trace, expected in (("0", self.end_to_end),
                                ("1", self.per_layer)):
            _, result = bench("--workload", "terrain-dense", "--seed",
                              "0", "--seconds", "0", "--trace", trace)
            self.assertEqual(set(result), {"correct", "attempted",
                                           "failed", "metrics"})
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            self.assertEqual(emitted, expected)
            for name in emitted:
                self.assertRegex(name, NAME)
            self.assertTrue(result["correct"])

    def test_every_workload_is_known(self):
        for workload in self.workloads:
            self.assertRegex(stream_hash(workload, 0), r"^[0-9a-f]{16}$")

    def test_seed_determines_command_stream(self):
        for workload in ("shadows", "terrain-dense"):
            self.assertEqual(stream_hash(workload, 3),
                             stream_hash(workload, 3))
            self.assertNotEqual(stream_hash(workload, 3),
                                stream_hash(workload, 4))

    def test_injected_image_mismatch_is_a_failed_frame(self):
        record, result = bench("--workload", "terrain-dense", "--seed",
                               "0", "--seconds", "0",
                               "--inject-mismatch")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(record["failed_frac"], 0)
        self.assertEqual(record["failed_frac"],
                         result["failed"] / result["attempted"])

    def test_default_seed_reproduces_fig10_shadows_fingerprint(self):
        record, result = bench("--workload", "shadows", "--seconds", "0")
        self.assertEqual(record["first_frame"], 0)
        self.assertEqual(record["sim_cycles"], 669568)
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
