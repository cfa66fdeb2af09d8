"""Self-tests of the benchmark: negative controls, determinism, seeds,
the result format and the refusal to run without sources.

    python3 bench/selftest.py

Run from the repository root.  The file is not named ``test_*.py`` so that
the library's test run does not collect it; it takes about 30 s.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import child
import run

ROOT = os.getcwd()


def bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


class NegativeControls(unittest.TestCase):
    def test_injected_fault_fails_its_cell(self):
        result = run.run_child(ROOT, "verify-rank3", 1, control="fault")
        self.assertEqual((result["attempted"], result["failed"]), (3, 1))

    def test_perturbed_reference_fails(self):
        for workload, failed in (("verify-rank3", 1), ("dual-table", 1), ("iwahori-words", 300)):
            with self.subTest(workload=workload):
                self.assertEqual(run.run_child(ROOT, workload, 1, control="perturb")["failed"], failed)


class Isolation(unittest.TestCase):
    def test_child_env_drops_cli_defaults(self):
        os.environ["SATAKE_JSON"] = "1"
        try:
            env = run.child_env(ROOT)
        finally:
            del os.environ["SATAKE_JSON"]
        self.assertFalse([k for k in env if k.startswith("SATAKE_")])
        self.assertEqual(env["PYTHONPATH"], os.path.join(ROOT, "src"))


class Determinism(unittest.TestCase):
    def test_traced_runs_repeat(self):
        a, b = (run.run_child(ROOT, "iwahori-words", 5, trace=True) for _ in range(2))
        self.assertEqual(a["digests"], b["digests"])
        calls = [{n: v["calls"] for n, v in r["trace"]["spans"].items()} for r in (a, b)]
        self.assertEqual(calls[0], calls[1])
        self.assertEqual(a["trace"]["counters"], b["trace"]["counters"])

    def test_seed_changes_word_inputs(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        try:
            import satake
        finally:
            sys.path.pop(0)
        self.assertNotEqual(child.word_inputs(satake, 1), child.word_inputs(satake, 2))
        self.assertEqual(child.word_inputs(satake, 1), child.word_inputs(satake, 1))


class ResultFormat(unittest.TestCase):
    def check(self, trace: int, names: list[str]) -> None:
        proc = run_bench(ROOT, "--workload", "iwahori-words", "--seed", "7",
                         "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), names)

    def test_end_to_end(self):
        self.check(0, [m["name"] for m in bench_json()["end_to_end"]])

    def test_per_layer(self):
        self.check(1, [m["name"] for m in bench_json()["per_layer"]])

    def test_benchmark_json_matches_run(self):
        spec = bench_json()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, dict(run.END_TO_END))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_units())

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as bare:
            shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = run_bench(bare, "--workload", "iwahori-words", "--seed", "1",
                             "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
