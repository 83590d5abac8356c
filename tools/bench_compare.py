#!/usr/bin/env python3
"""Warn-only benchmark regression check.

Compares freshly produced BENCH_*.json files against the committed
reference numbers in bench/baseline/. Two formats are understood:

* google-benchmark JSON ("benchmarks": [{"name", "real_time", ...}]) —
  per-benchmark real_time is compared by name;
* the custom routing-ablation record ("bench": "routing_ablation") —
  batch serial/parallel wall seconds are compared, serial/parallel checksum
  agreement is re-asserted, and the deterministic parts (the sweep rows'
  proactive/on-demand latency and detour choice, and the batch serial
  checksum) are re-asserted exactly against the baseline;
* the custom propagation record ("bench": "propagation") — per-step times
  for the scalar/batch paths are compared, checksum agreement is
  re-asserted, and the batch speedup is checked against the 3x floor the
  kernel is expected to hold;
* the custom coverage-index record ("bench": "coverage_index") — indexed
  wall times are compared, brute==indexed / serial==parallel checksum
  agreement is re-asserted, and the query-kernel speedups are checked
  against the floors the spherical footprint index is expected to hold
  (4x at 66 satellites, 6x at 1000);
* the custom fig2c record ("bench": "fig2c_coverage") — wall time is
  compared and the coverage curve itself (a deterministic seeded
  computation) is re-asserted point for point against the baseline: a
  point drifting by more than 1e-9, a different point count or a changed
  full_coverage_at fails the run;
* the custom flow-simulator record ("bench": "flow_sim") — scheduler /
  simulator / scale-run wall times are compared, the wheel==EventQueue,
  simulator==legacy and serial==parallel checksum gates are re-asserted,
  and the timer-wheel speedup is checked against its 3x floor;
* the custom temporal-delta record ("bench": "temporal_delta") — delta
  (IncrementalTopology) wall times are compared, the delta==fresh /
  serial==parallel checksum gates are re-asserted, and the graph speedup
  over the spec recompile is checked against its 4x floor (headline
  target is 5x; the floor leaves noise margin);
* the custom handover record ("bench": "handover") — the timelines are
  deterministic seeded computations, so cadence counts and outage numbers
  are re-asserted exactly against the baseline at equal scale, and the
  predictive scheme's outage reduction over re-association is checked
  against its 25x floor;
* the custom session record ("bench": "session") — the sweep==legacy and
  serial==parallel checksum gates are re-asserted, the cache-consults-
  every-handover invariant is re-checked, sweep wall times are compared,
  the epoch index's compile count is checked against one compile per 60 s
  window of epochs, and the epoch sweep's speedup over the per-user
  planner scan is checked against its 10x floor (at meaningful scale).

CI hardware varies run to run, so this is a smoke alarm, not a gate: every
regression beyond the threshold prints a GitHub ::warning:: annotation and
the script still exits 0. The one exception is the Figure 2(c) coverage
curve, which no hardware can move: its drift prints ::error:: and the
script exits 1. The committed baselines document the numbers a
known machine produced; refresh them (tools/bench_compare.py --help shows
the layout) whenever an intentional perf change lands.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Warn when current time exceeds baseline by more than this factor.
DEFAULT_THRESHOLD = 1.5


def warn(msg: str) -> None:
    print(f"::warning::{msg}")


# Hard failures (deterministic outputs that moved); main() exits 1 if any.
failures: list[str] = []


def fail(msg: str) -> None:
    print(f"::error::{msg}")
    failures.append(msg)


def load(path: Path):
    try:
        with path.open() as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        warn(f"bench_compare: cannot read {path}: {e}")
        return None


def google_benchmark_times(doc) -> dict[str, float]:
    """name -> real_time (ns) for plain (non-aggregate) entries."""
    times: dict[str, float] = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name")
        t = b.get("real_time")
        if name is None or t is None:
            continue
        # Repetitions repeat names; keep the minimum (robust on noisy CI).
        times[name] = min(t, times.get(name, float("inf")))
    return times


def compare_google_benchmark(current, baseline, threshold: float) -> int:
    warned = 0
    cur = google_benchmark_times(current)
    base = google_benchmark_times(baseline)
    for name, base_t in sorted(base.items()):
        cur_t = cur.get(name)
        if cur_t is None:
            warn(f"benchmark {name} present in baseline but not in this run")
            warned += 1
            continue
        ratio = cur_t / base_t if base_t > 0 else float("inf")
        marker = " REGRESSION?" if ratio > threshold else ""
        print(f"  {name}: {cur_t:.0f} vs baseline {base_t:.0f} "
              f"({ratio:.2f}x){marker}")
        if ratio > threshold:
            warn(f"{name}: {cur_t:.0f} ns vs baseline {base_t:.0f} ns "
                 f"({ratio:.2f}x > {threshold:.2f}x)")
            warned += 1
    return warned


def compare_routing_ablation(current, baseline, threshold: float) -> int:
    warned = 0
    cur_batch = current.get("batch", {})
    base_batch = baseline.get("batch", {})
    if not cur_batch.get("checksums_match", False):
        warn("routing_ablation: serial/parallel batch checksums diverged")
        warned += 1
    for key in ("serial_seconds", "parallel_seconds"):
        cur_t = cur_batch.get(key)
        base_t = base_batch.get(key)
        if cur_t is None or base_t is None or base_t <= 0:
            continue
        ratio = cur_t / base_t
        marker = " REGRESSION?" if ratio > threshold else ""
        print(f"  batch.{key}: {cur_t:.4f}s vs baseline {base_t:.4f}s "
              f"({ratio:.2f}x){marker}")
        if ratio > threshold:
            warn(f"routing_ablation batch.{key}: {cur_t:.4f}s vs baseline "
                 f"{base_t:.4f}s ({ratio:.2f}x > {threshold:.2f}x)")
            warned += 1
    # The sweep and the batch trees are fixed deterministic computations:
    # any drift from the committed baseline is a semantic change, not noise.
    row_keys = ("hot_queue_ms", "reachable", "proactive_latency_ms",
                "ondemand_latency_ms", "detoured")
    cur_rows = [tuple(r.get(k) for k in row_keys)
                for r in current.get("rows", [])]
    base_rows = [tuple(r.get(k) for k in row_keys)
                 for r in baseline.get("rows", [])]
    if cur_rows != base_rows:
        warn("routing_ablation: sweep rows (proactive/on-demand latency, "
             "detoured) drifted from the baseline — the sweep is "
             "deterministic, so this is a semantic change, not noise")
        warned += 1
    else:
        print(f"  rows: {len(cur_rows)} sweep points match")
    cur_sum = cur_batch.get("serial_checksum")
    base_sum = base_batch.get("serial_checksum")
    if base_sum is not None:
        print(f"  batch.serial_checksum: {cur_sum} vs baseline {base_sum}")
        if cur_sum != base_sum:
            warn(f"routing_ablation batch.serial_checksum: {cur_sum} vs "
                 f"baseline {base_sum} — the trees are deterministic, so "
                 f"this is a semantic change, not noise")
            warned += 1
    return warned


def compare_propagation(current, baseline, threshold: float) -> int:
    warned = 0
    if not current.get("checksums_match", False):
        warn("propagation: scalar/batch or serial/parallel checksums "
             "diverged")
        warned += 1
    for key in ("scalar_us_per_step", "batch_us_per_step"):
        cur_t = current.get(key)
        base_t = baseline.get(key)
        if cur_t is None or base_t is None or base_t <= 0:
            continue
        ratio = cur_t / base_t
        marker = " REGRESSION?" if ratio > threshold else ""
        print(f"  {key}: {cur_t:.3f}us vs baseline {base_t:.3f}us "
              f"({ratio:.2f}x){marker}")
        if ratio > threshold:
            warn(f"propagation {key}: {cur_t:.3f}us vs baseline "
                 f"{base_t:.3f}us ({ratio:.2f}x > {threshold:.2f}x)")
            warned += 1
    # The batch kernel's reason to exist: warn if the speedup over the
    # scalar spec sinks below the floor the baseline machine demonstrated.
    speedup = current.get("speedup_batch")
    if speedup is not None:
        floor = 3.0
        print(f"  speedup_batch: {speedup:.2f}x (floor {floor:.1f}x)")
        if speedup < floor:
            warn(f"propagation speedup_batch: {speedup:.2f}x below the "
                 f"{floor:.1f}x floor")
            warned += 1
    return warned


def compare_coverage_index(current, baseline, threshold: float) -> int:
    warned = 0
    if not current.get("checksums_match", False):
        warn("coverage_index: brute/indexed or serial/parallel checksums "
             "diverged")
        warned += 1
    if current.get("scale") != baseline.get("scale"):
        # CI runs the bench at a reduced workload scale; absolute times are
        # incomparable then, but the speedup floors below still apply.
        print(f"  (scale {current.get('scale')} vs baseline "
              f"{baseline.get('scale')}: skipping wall-time comparison)")
    else:
        warned += _compare_coverage_index_times(current, baseline, threshold)
    # The index's reason to exist: the fig2c-style query kernel and the
    # association fan-out must stay well ahead of the brute specs.
    for key, floor in (("speedup_kernel66", 4.0), ("speedup_kernel1000", 6.0),
                       ("speedup_assoc66", 3.0), ("speedup_assoc1000", 8.0)):
        speedup = current.get(key)
        if speedup is None:
            continue
        print(f"  {key}: {speedup:.2f}x (floor {floor:.1f}x)")
        if speedup < floor:
            warn(f"coverage_index {key}: {speedup:.2f}x below the "
                 f"{floor:.1f}x floor")
            warned += 1
    return warned


def _compare_coverage_index_times(current, baseline, threshold: float) -> int:
    warned = 0
    for key in ("kernel66_indexed_s", "kernel1000_indexed_s",
                "mc66_indexed_s", "mc1000_indexed_s", "assoc66_indexed_s",
                "assoc1000_indexed_s", "mc66_parallel_s",
                "assoc66_parallel_s", "assoc1000_parallel_s"):
        cur_t = current.get(key)
        base_t = baseline.get(key)
        if cur_t is None or base_t is None or base_t <= 0:
            continue
        ratio = cur_t / base_t
        marker = " REGRESSION?" if ratio > threshold else ""
        print(f"  {key}: {cur_t:.4f}s vs baseline {base_t:.4f}s "
              f"({ratio:.2f}x){marker}")
        if ratio > threshold:
            warn(f"coverage_index {key}: {cur_t:.4f}s vs baseline "
                 f"{base_t:.4f}s ({ratio:.2f}x > {threshold:.2f}x)")
            warned += 1
    return warned


def compare_flow_sim(current, baseline, threshold: float) -> int:
    warned = 0
    if not current.get("checksums_match", False):
        warn("flow_sim: wheel/EventQueue, simulator/legacy or "
             "serial/parallel checksums diverged")
        warned += 1
    if current.get("scale") != baseline.get("scale"):
        # CI runs the bench at a reduced workload scale; absolute times are
        # incomparable then, but the speedup floor below still applies.
        print(f"  (scale {current.get('scale')} vs baseline "
              f"{baseline.get('scale')}: skipping wall-time comparison)")
    else:
        for key in ("sched_wheel_s", "equiv_sim_s", "scale_run_s"):
            cur_t = current.get(key)
            base_t = baseline.get(key)
            if cur_t is None or base_t is None or base_t <= 0:
                continue
            ratio = cur_t / base_t
            marker = " REGRESSION?" if ratio > threshold else ""
            print(f"  {key}: {cur_t:.4f}s vs baseline {base_t:.4f}s "
                  f"({ratio:.2f}x){marker}")
            if ratio > threshold:
                warn(f"flow_sim {key}: {cur_t:.4f}s vs baseline "
                     f"{base_t:.4f}s ({ratio:.2f}x > {threshold:.2f}x)")
                warned += 1
    # The wheel's reason to exist: POD slab records must keep it well ahead
    # of the closure-allocating EventQueue spec. The floor only holds at a
    # meaningful open-timer count, so skip it on heavily reduced lanes.
    speedup = current.get("speedup_scheduler")
    if speedup is not None:
        floor = 3.0 if current.get("scale", 1.0) >= 0.2 else None
        floor_txt = f" (floor {floor:.1f}x)" if floor else " (no floor at this scale)"
        print(f"  speedup_scheduler: {speedup:.2f}x{floor_txt}")
        if floor is not None and speedup < floor:
            warn(f"flow_sim speedup_scheduler: {speedup:.2f}x below the "
                 f"{floor:.1f}x floor")
            warned += 1
    return warned


def compare_temporal_delta(current, baseline, threshold: float) -> int:
    warned = 0
    if not current.get("checksums_match", False):
        warn("temporal_delta: delta/fresh or serial/parallel checksums "
             "diverged")
        warned += 1
    if current.get("scale") != baseline.get("scale"):
        # CI runs the bench at a reduced workload scale; absolute times are
        # incomparable then, but the speedup floors below still apply.
        print(f"  (scale {current.get('scale')} vs baseline "
              f"{baseline.get('scale')}: skipping wall-time comparison)")
    else:
        for key in ("graph_delta_s", "routes_delta_s"):
            cur_t = current.get(key)
            base_t = baseline.get(key)
            if cur_t is None or base_t is None or base_t <= 0:
                continue
            ratio = cur_t / base_t
            marker = " REGRESSION?" if ratio > threshold else ""
            print(f"  {key}: {cur_t:.4f}s vs baseline {base_t:.4f}s "
                  f"({ratio:.2f}x){marker}")
            if ratio > threshold:
                warn(f"temporal_delta {key}: {cur_t:.4f}s vs baseline "
                     f"{base_t:.4f}s ({ratio:.2f}x > {threshold:.2f}x)")
                warned += 1
    # The delta path's reason to exist: the ≥5x graph headline. The floor
    # sits below the measured 4.3-5.3x (ratio of per-mode minima over 7
    # interleaved passes; one run in 12 still read 3.98x on a shared VM), and
    # only applies at a meaningful step count (reduced lanes amortize the
    # one-off set-up over too few steps). The routes leg runs a
    # fresh Dijkstra per tree on both sides, so it has no floor.
    speedup = current.get("speedup_graph")
    if speedup is not None:
        floor = 4.0
        if current.get("scale", 1.0) >= 0.2:
            print(f"  speedup_graph: {speedup:.2f}x (floor {floor:.1f}x)")
            if speedup < floor:
                warn(f"temporal_delta speedup_graph: {speedup:.2f}x below the "
                     f"{floor:.1f}x floor")
                warned += 1
        else:
            print(f"  speedup_graph: {speedup:.2f}x (no floor at this scale)")
    return warned


def compare_handover(current, baseline, threshold: float) -> int:
    warned = 0
    cur_t = current.get("wall_seconds")
    base_t = baseline.get("wall_seconds")
    if cur_t is not None and base_t is not None and base_t > 0:
        ratio = cur_t / base_t
        marker = " REGRESSION?" if ratio > threshold else ""
        print(f"  wall_seconds: {cur_t:.3f}s vs baseline {base_t:.3f}s "
              f"({ratio:.2f}x){marker}")
        if ratio > threshold:
            warn(f"handover wall_seconds: {cur_t:.3f}s vs baseline "
                 f"{base_t:.3f}s ({ratio:.2f}x > {threshold:.2f}x)")
            warned += 1
    # The predictive scheme's reason to exist: per-handover outage drops
    # from beacon wait + RADIUS RTT (~1.1 s) to signaling latency (~20 ms).
    # The ratio is per-handover, so it holds at any window scale.
    ratio = current.get("outage_ratio")
    if ratio is not None:
        print(f"  outage_ratio: {ratio:.1f}x (floor 25.0x)")
        if ratio < 25.0:
            warn(f"handover outage_ratio: predictive only {ratio:.1f}x "
                 f"less outage than re-association (floor 25x)")
            warned += 1
    if current.get("scale") != baseline.get("scale"):
        # A different window length changes every cadence count; only the
        # per-handover ratio above is comparable then.
        print(f"  (scale {current.get('scale')} vs baseline "
              f"{baseline.get('scale')}: skipping cadence comparison)")
        return warned
    # The timelines are fixed-seed deterministic computations: any drift
    # from the committed baseline is a semantic change, not noise.
    for key in ("predictive_handovers", "reassociate_handovers",
                "predictive_outage_s", "reassociate_outage_s"):
        a, b = current.get(key), baseline.get(key)
        if a is None or b is None:
            continue
        drifted = abs(a - b) > 1e-9 if isinstance(a, float) else a != b
        print(f"  {key}: {a} vs baseline {b}")
        if drifted:
            warn(f"handover {key}: {a} vs baseline {b} — the timeline is "
                 f"deterministic, so this is a semantic change, not noise")
            warned += 1
    cur_rows = current.get("cadence", [])
    base_rows = baseline.get("cadence", [])
    if [(r.get("sats"), r.get("handovers")) for r in cur_rows] != \
       [(r.get("sats"), r.get("handovers")) for r in base_rows]:
        warn("handover: cadence-vs-density table drifted from the baseline")
        warned += 1
    else:
        print(f"  cadence: {len(cur_rows)} density points match")
    return warned


def compare_session(current, baseline, threshold: float) -> int:
    warned = 0
    if not current.get("checksums_match", False):
        warn("session: sweep/legacy timeline or serial/parallel checksums "
             "diverged")
        warned += 1
    # Every handover consults the per-shard certificate cache exactly once
    # (hit or miss); a gap means the cache was silently bypassed.
    handovers = current.get("handovers")
    hits = current.get("cert_cache_hits")
    misses = current.get("cert_cache_misses")
    if None not in (handovers, hits, misses) and hits + misses != handovers:
        warn(f"session: cert cache consulted {hits + misses} times for "
             f"{handovers} handovers — the cache is being bypassed")
        warned += 1
    # Epochs inside one 60 s grid window share one margined index, so the
    # chain compiles at most one index per window it touches. Older
    # records carry no index_compiles field.
    compiles = current.get("index_compiles")
    epochs = current.get("epochs")
    epoch_s = current.get("epoch_s")
    if None not in (compiles, epochs, epoch_s):
        bound = epochs * epoch_s / 60.0 + 1
        print(f"  index_compiles: {compiles} for {epochs} epochs "
              f"(bound {bound:.0f})")
        if compiles > bound:
            warn(f"session index_compiles: {compiles} > {bound:.0f} — the "
                 f"epoch index is no longer reused across its 60 s window")
            warned += 1
    if current.get("scale") != baseline.get("scale"):
        # CI runs the bench at a reduced user count; absolute times are
        # incomparable then, but the speedup floor below still applies.
        print(f"  (scale {current.get('scale')} vs baseline "
              f"{baseline.get('scale')}: skipping wall-time comparison)")
    else:
        for key in ("seed_s", "sweep_serial_s", "sweep_parallel_s",
                    "baseline_probe_s"):
            cur_t = current.get(key)
            base_t = baseline.get(key)
            if cur_t is None or base_t is None or base_t <= 0:
                continue
            ratio = cur_t / base_t
            marker = " REGRESSION?" if ratio > threshold else ""
            print(f"  {key}: {cur_t:.4f}s vs baseline {base_t:.4f}s "
                  f"({ratio:.2f}x){marker}")
            if ratio > threshold:
                warn(f"session {key}: {cur_t:.4f}s vs baseline "
                     f"{base_t:.4f}s ({ratio:.2f}x > {threshold:.2f}x)")
                warned += 1
    # The sweep's reason to exist: the >= 10x headline over the per-user
    # planner scan. The floor only holds once per-epoch fixed costs (index
    # compile, heap walk) amortize over enough users, so skip it on heavily
    # reduced lanes.
    speedup = current.get("speedup_vs_planner")
    if speedup is not None:
        floor = 10.0 if current.get("scale", 1.0) >= 0.2 else None
        floor_txt = f" (floor {floor:.1f}x)" if floor \
            else " (no floor at this scale)"
        print(f"  speedup_vs_planner: {speedup:.2f}x{floor_txt}")
        if floor is not None and speedup < floor:
            warn(f"session speedup_vs_planner: {speedup:.2f}x below the "
                 f"{floor:.1f}x floor")
            warned += 1
    return warned


def compare_scale(current, baseline, threshold: float) -> int:
    warned = 0
    if not current.get("checksums_match", False):
        warn("scale: a hard gate diverged (serial/parallel or indexed "
             "closestVisible)")
        warned += 1
    same_scale = current.get("scale") == baseline.get("scale")
    if not same_scale:
        # CI runs a reduced workload; absolute stage times are incomparable
        # then.
        print(f"  (scale {current.get('scale')} vs baseline "
              f"{baseline.get('scale')}: skipping stage-time comparison)")
    base_tiers = {t.get("tier"): t for t in baseline.get("tiers", [])}
    for tier in current.get("tiers", []):
        name = tier.get("tier")
        base = base_tiers.get(name)
        if not tier.get("gates_match", False):
            warn(f"scale {name}: per-tier gates diverged")
            warned += 1
        reached = tier.get("route_reached")
        pairs = tier.get("route_pairs")
        if reached is not None and pairs and reached < pairs:
            warn(f"scale {name}: only {reached}/{pairs} route pairs "
                 f"reachable — the intra-shell ISL graph fragmented")
            warned += 1
        if same_scale and base is not None:
            for key in ("prop_batch_s", "index_build_s", "topo_build_s",
                        "route_s"):
                cur_t = tier.get(key)
                base_t = base.get(key)
                if cur_t is None or base_t is None or base_t <= 0:
                    continue
                ratio = cur_t / base_t
                marker = " REGRESSION?" if ratio > threshold else ""
                print(f"  {name} {key}: {cur_t:.4f}s vs baseline "
                      f"{base_t:.4f}s ({ratio:.2f}x){marker}")
                if ratio > threshold:
                    warn(f"scale {name} {key}: {cur_t:.4f}s vs baseline "
                         f"{base_t:.4f}s ({ratio:.2f}x > {threshold:.2f}x)")
                    warned += 1
    return warned


def compare_fig2c_coverage(current, baseline, threshold: float) -> int:
    warned = 0
    cur_t = current.get("wall_seconds")
    base_t = baseline.get("wall_seconds")
    if cur_t is not None and base_t is not None and base_t > 0:
        ratio = cur_t / base_t
        marker = " REGRESSION?" if ratio > threshold else ""
        print(f"  wall_seconds: {cur_t:.3f}s vs baseline {base_t:.3f}s "
              f"({ratio:.2f}x){marker}")
        if ratio > threshold:
            warn(f"fig2c_coverage wall_seconds: {cur_t:.3f}s vs baseline "
                 f"{base_t:.3f}s ({ratio:.2f}x > {threshold:.2f}x)")
            warned += 1
    # The curve is a fixed-seed deterministic computation: any drift from
    # the committed baseline is a semantic change, not noise, so it fails
    # the run instead of warning.
    if current.get("full_coverage_at") != baseline.get("full_coverage_at"):
        fail(f"fig2c_coverage full_coverage_at: "
             f"{current.get('full_coverage_at')} vs baseline "
             f"{baseline.get('full_coverage_at')}")
    cur_pts = current.get("points", [])
    base_pts = baseline.get("points", [])
    if len(cur_pts) != len(base_pts):
        fail(f"fig2c_coverage: {len(cur_pts)} points vs baseline "
             f"{len(base_pts)}")
        return warned
    drift = 0.0
    for cur_p, base_p in zip(cur_pts, base_pts):
        for key in ("worst_case_coverage", "monte_carlo_coverage",
                    "mean_effective_satellites"):
            a, b = cur_p.get(key), base_p.get(key)
            if a is not None and b is not None:
                drift = max(drift, abs(a - b))
    print(f"  curve: {len(cur_pts)} points, max drift {drift:.2e}")
    if drift > 1e-9:
        fail(f"fig2c_coverage: coverage curve drifted from the baseline "
             f"(max {drift:.2e}) — the computation is seeded, so this is "
             f"a semantic change, not noise")
    return warned


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("files", nargs="+", type=Path,
                    help="freshly produced BENCH_*.json files")
    ap.add_argument("--baseline-dir", type=Path,
                    default=Path("bench/baseline"),
                    help="directory of committed baselines, matched by "
                         "file name (default: bench/baseline)")
    ap.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                    help="warn when current/baseline exceeds this factor")
    args = ap.parse_args()

    warned = 0
    for path in args.files:
        current = load(path)
        if current is None:
            warned += 1
            continue
        base_path = args.baseline_dir / path.name
        if not base_path.exists():
            warn(f"no committed baseline for {path.name} "
                 f"(expected {base_path}); skipping compare")
            warned += 1
            continue
        baseline = load(base_path)
        if baseline is None:
            warned += 1
            continue
        print(f"== {path.name} vs {base_path}")
        if current.get("bench") == "routing_ablation":
            warned += compare_routing_ablation(current, baseline,
                                               args.threshold)
        elif current.get("bench") == "propagation":
            warned += compare_propagation(current, baseline, args.threshold)
        elif current.get("bench") == "coverage_index":
            warned += compare_coverage_index(current, baseline,
                                             args.threshold)
        elif current.get("bench") == "flow_sim":
            warned += compare_flow_sim(current, baseline, args.threshold)
        elif current.get("bench") == "temporal_delta":
            warned += compare_temporal_delta(current, baseline,
                                             args.threshold)
        elif current.get("bench") == "handover":
            warned += compare_handover(current, baseline, args.threshold)
        elif current.get("bench") == "session":
            warned += compare_session(current, baseline, args.threshold)
        elif current.get("bench") == "scale":
            warned += compare_scale(current, baseline, args.threshold)
        elif current.get("bench") == "fig2c_coverage":
            warned += compare_fig2c_coverage(current, baseline,
                                             args.threshold)
        else:
            warned += compare_google_benchmark(current, baseline,
                                               args.threshold)

    print(f"bench_compare: {warned} warning(s) (informational only), "
          f"{len(failures)} failure(s)")
    # Timings are warn-only by design (CI hardware is too noisy to gate
    # on); only a moved deterministic curve fails.
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
