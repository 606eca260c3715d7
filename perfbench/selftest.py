#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Checks that every metric is printed with the unit BENCHMARK.json gives it,
on every workload and in both modes, and that ``correct`` drops to 0 when a
replayed fixture's recorded verdict is flipped or a theorem cell is swapped
for the sign-flipped Lagrangian.
"""

import contextlib
import io
import json
import sys
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(name: str, trace: int) -> dict:
    """run.main at tiny sample counts; returns the parsed last output line."""
    out = io.StringIO()
    with mock.patch.dict(workloads.FULL_SAMPLES, workloads.TINY_SAMPLES), \
            mock.patch.object(run, "SETUP_REPEATS", 1), \
            contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"run.main exited {code}:\n{out.getvalue()}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    def test_units_match_benchmark_json(self):
        for key, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
            self.assertEqual({m["name"]: m["unit"] for m in SPEC[key]}, units)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.NAMES))

    def test_every_metric_printed_with_its_unit(self):
        for name in workloads.NAMES:
            for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
                with self.subTest(workload=name, trace=trace):
                    res = run_tiny(name, trace)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in res["metrics"].items()}, units
                    )

    def test_flipped_fixture_verdict_is_caught(self):
        real_write = workloads.write_json

        def write_flipped(path, data):
            fixture = next(f for f in data["fixtures"] if "energy_ok" in f["recorded"])
            fixture["recorded"]["energy_ok"] = not fixture["recorded"]["energy_ok"]
            real_write(path, data)

        with mock.patch.object(workloads, "write_json", write_flipped):
            res = run_tiny("counterexample-harvest", 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["metrics"]["correct"]["value"], 0.0)

    def test_sign_flipped_grid_cell_is_caught(self):
        real_build = workloads.build

        def build_with_flipped_cell(name, seed, samples):
            wl = real_build(name, seed, samples)
            # At 3x3 the strain has rank 3, so s_2 enters and energy can fail.
            k = workloads.GRID_DIMS.index((3, 3))
            cfg = wl.cells[k].config
            lname, params = workloads.SIGN_FLIPPED
            bad = workloads._cell(lname, params, 3, 3, 64, 8, cfg.seed)
            return replace(wl, cells=wl.cells[:k] + (bad,) + wl.cells[k + 1:])

        with mock.patch.object(workloads, "build", build_with_flipped_cell):
            res = run_tiny("grid-serial", 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["metrics"]["correct"]["value"], 0.0)


if __name__ == "__main__":
    unittest.main()
