#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny scale (about 15 s in all).

    python3 worldbench/test_worldbench.py

They check that:
  * the traced run of every workload is correct: its pool-thread hours
    and its one-thread hour give the same digest and counts (serial ==
    parallel, end to end), it reports every per-layer metric, and its
    stage spans cover at least 95 % of run_s;
  * a wrong expected digest fails the run, so the output check can fail;
  * compare.py refuses to compare records from different machines or
    run settings;
  * run.py fails without a result when the library sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--seed", "7", "--seconds", "0", "--scale", "0.02", "--epochs", "12"]
WORKLOADS = ("iridium-hour", "mega-5k", "iridium-churn")


def scratch_dir():
    base = os.path.join(ROOT, ".bench_build")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="worldbench-test-", dir=base)


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=600, check=False)


class WorldBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = scratch_dir()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def record(self, workload, *extra):
        path = os.path.join(self.tmp, f"{workload}-{len(extra)}-"
                            f"{'-'.join(extra)}.json")
        proc = run(["--workload", workload, *TINY, *extra, "--record", path])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(path, encoding="utf-8") as f:
            return json.load(f)

    def test_traced_run_is_correct_on_every_workload(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            names = [m["name"] for m in json.load(f)["per_layer"]]
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rec = self.record(w, "--trace", "1")
                self.assertTrue(rec["correct"])
                self.assertGreater(rec["counts"]["sessions"], 0)
                self.assertEqual(sorted(rec["metrics"]), sorted(names))
                self.assertLess(
                    rec["metrics"]["trace.unattributed_frac"]["value"], 0.05)
                self.assertEqual(rec["metrics"]["epochs_failed"]["value"], 0)

    def test_wrong_expected_digest_fails_the_run(self):
        proc = run(["--workload", "iridium-churn", *TINY,
                    "--expect-digest", "0123456789abcdef"])
        self.assertNotEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertFalse(result["correct"])

    def test_compare_refuses_other_machines_and_settings(self):
        base = self.record("iridium-hour")
        other_machine = json.loads(json.dumps(base))
        other_machine["fingerprint"]["nproc"] += 1
        other_scale = dict(base, scale=1.0)
        for i, other in enumerate((other_machine, other_scale)):
            paths = []
            for j, rec in enumerate((base, other)):
                paths.append(os.path.join(self.tmp, f"cmp-{i}-{j}.json"))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    json.dump(rec, f)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "compare.py"), *paths],
                capture_output=True, text=True, timeout=60, check=False)
            self.assertIn("not comparable", proc.stdout)
            self.assertNotIn("REGRESSION", proc.stdout)

    def test_fails_without_library_sources(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(HERE, os.path.join(bare, "worldbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "worldbench/run.py", "--workload", "iridium-hour",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
