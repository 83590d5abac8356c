#!/usr/bin/env python3
"""Compare two worldbench records (written by run.py --record).

    python3 worldbench/compare.py BASE.json NEW.json

Two records are comparable only when they ran the same workload, seed,
trace mode, scale, epochs and --seconds on the same machine and build:
nproc, compiler, build type, SIMD level and pool thread count must all
match. Otherwise the script prints "not comparable" with the differing
fields and never reports a regression. The git sha names the code under
test and may differ.

For comparable records it prints each metric's change. An end-to-end
metric that got worse by more than its BENCHMARK.json bound is flagged.
A single pair of runs is only a hint: a claim needs the repeated,
alternating runs that worldbench/README.md describes. The exit code is 0
unless a record cannot be read.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE_KEYS = ("nproc", "compiler", "build_type", "simd", "pool_threads")
RUN_KEYS = ("workload", "seed", "trace", "scale", "epochs", "seconds")


def mismatches(base, new):
    diffs = [f"{k}: {base.get(k)} vs {new.get(k)}"
             for k in RUN_KEYS if base.get(k) != new.get(k)]
    bf, nf = base["fingerprint"], new["fingerprint"]
    diffs += [f"{k}: {bf.get(k)} vs {nf.get(k)}"
              for k in MACHINE_KEYS if bf.get(k) != nf.get(k)]
    return diffs


def main(argv):
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        base = json.load(f)
    with open(argv[2], encoding="utf-8") as f:
        new = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    diffs = mismatches(base, new)
    if diffs:
        print("not comparable: " + "; ".join(diffs))
        return 0
    print(f"# {base['workload']} seed={base['seed']}: "
          f"{base['fingerprint'].get('git_sha', '?')[:12]} -> "
          f"{new['fingerprint'].get('git_sha', '?')[:12]}")
    if base["digest"] != new["digest"]:
        print(f"# outputs differ: digest {base['digest']} -> {new['digest']}")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            print(f"{name:34s} missing in the new record")
            continue
        bv, nv = b["value"], n["value"]
        change = (nv - bv) / bv if bv else 0.0
        worse = change if better.get(name) == "lower" else -change
        verdict = ""
        if name in bounds:
            verdict = ("REGRESSION" if worse > bounds[name]["bound"]
                       else "within bound")
        print(f"{name:34s} {bv:>14.6g} -> {nv:<14.6g} {b['unit']:6s} "
              f"{100 * change:+7.1f}%  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
