"""Self-test of the benchmark harness.

    python3 benchmark/selftest.py

Runs a smoke pass (the smallest operation) of every workload, untraced and
traced, and checks that every metric named in BENCHMARK.json is printed by
name with its unit, and that ``fail_frac`` is printed.  Then it runs the
harness with one expected exit code deliberately wrong and checks that the
failure reaches ``fail_frac`` and the result line.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def printed_metrics(stdout: str) -> dict[str, tuple[float, str]]:
    """The ``name = value unit`` lines of a run's output."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] == "=":
            out[parts[0]] = (float(parts[2]), parts[3])
    return out


def smoke(workload: str, trace: int) -> tuple[str, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} smoke run exited {proc.returncode}: {proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


class HarnessTest(unittest.TestCase):
    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))

    def test_smoke_prints_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    stdout, result = smoke(workload, trace)
                    printed = printed_metrics(stdout)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(printed["fail_frac"], (0.0, "ratio"))
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(result["metrics"]), set(want))
                    for name, unit in want.items():
                        self.assertEqual(printed[name][1], unit, name)
                        self.assertEqual(result["metrics"][name]["unit"], unit, name)

    def test_wrong_expected_exit_code_counts_as_failure(self):
        real = workloads.operations

        def wrong_first(workload, manifest):
            ops = real(workload, manifest)
            return [dataclasses.replace(ops[0], expect_exit=1 - ops[0].expect_exit), *ops[1:]]

        args = run.parse_args(["--workload", "verify-dense", "--seed", "7",
                               "--seconds", "1", "--smoke"])
        out = io.StringIO()
        workloads.operations = wrong_first
        try:
            with contextlib.redirect_stdout(out):
                result = run.measure(args)
        finally:
            workloads.operations = real
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(printed_metrics(out.getvalue())["fail_frac"][0], 0.0)


if __name__ == "__main__":
    unittest.main()
