#!/usr/bin/env python3
"""Run the one-world benchmark on one workload and print its result line.

    python3 worldbench/run.py --workload iridium-hour --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It builds world_bench and the library
from source into .bench_build/worldbench, runs one workload and checks the
outputs. Then it prints every metric by name with its unit. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are its per-layer metrics.

Outputs are checked in three ways. Every epoch must pass world_bench's own
checks. Every hour of a run must give the same digest. For the default
seed at full size, the digest and the deterministic counts must equal the
values recorded in worldbench/expected.json. If any check fails, the
result says correct: false and the exit code is 1. A build or run failure
exits non-zero without printing a result.

--record PATH also writes the full record: run settings, fingerprint,
digest, counts and metrics. worldbench/compare.py compares two such
records. --scale, --epochs and --expect-digest are for the benchmark's own
tests.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "worldbench")
BINARY = os.path.join(BUILD_DIR, "world_bench")
DEFAULT_SEED = 1
FULL_EPOCHS = 240
BUILD_JOBS_MAX = 4
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"worldbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configure once, then let cmake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under src/; run from a full checkout")
    jobs = str(min(BUILD_JOBS_MAX, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def git_sha():
    """HEAD of the checkout, or "none" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def check_expected(record, args):
    """Problems with the digest and counts against the recorded values."""
    problems = []
    expected = {}
    full_size = args.scale == 1.0 and args.epochs == FULL_EPOCHS
    if args.seed == DEFAULT_SEED and full_size:
        expected = load_json(os.path.join(HERE, "expected.json")).get(
            args.workload, {})
    if args.expect_digest is not None:
        expected = {"digest": args.expect_digest}
    if "digest" in expected and record["digest"] != expected["digest"]:
        problems.append(f"digest {record['digest']} != expected "
                        f"{expected['digest']}")
    for key, want in expected.get("counts", {}).items():
        got = record["counts"].get(key)
        if got != want:
            problems.append(f"count {key} = {got}, expected {want}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies every user count (tests)")
    ap.add_argument("--epochs", type=int, default=FULL_EPOCHS,
                    help="epochs per simulated hour (tests)")
    ap.add_argument("--expect-digest", help="require this digest (tests)")
    ap.add_argument("--record", help="also write the full record here")
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale),
           "--epochs", str(args.epochs)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"world_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"world_bench exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["fingerprint"]["git_sha"] = git_sha()

    section = "per_layer" if args.trace else "end_to_end"
    measured = record[section]
    metrics = {}
    for m in spec[section]:
        value = measured.get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {m['name']} missing from the world_bench record")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    problems = check_expected(record, args)
    if record["epochs_failed"] > 0:
        problems.append(f"{record['epochs_failed']} epochs failed a check")
    if not record["outputs_stable"]:
        problems.append("hours of one run gave different digests or counts")
    correct = not problems

    fp = record["fingerprint"]
    print(f"# worldbench {args.workload} seed={args.seed} trace={args.trace} "
          f"hours={record['hours']} epochs={record['epochs_attempted']} "
          f"hour_run_s={record['hour_run_s']}")
    print("# fingerprint: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"# digest {record['digest']}; repair fallback: "
          f"{record['repair_fallback']}; counts: " +
          " ".join(f"{k}={v}" for k, v in record["counts"].items()))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>18.6g} {m['unit']}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "scale": args.scale,
                       "epochs": args.epochs, "seconds": args.seconds,
                       "correct": correct,
                       "fingerprint": fp, "digest": record["digest"],
                       "counts": record["counts"], "metrics": metrics},
                      f, indent=2)
    print(json.dumps({"correct": correct,
                      "attempted": record["epochs_attempted"],
                      "failed": record["epochs_failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
