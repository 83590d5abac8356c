// Multi-snapshot flow simulation over the incremental topology path.
//
// flow_sim.hpp simulates one compiled snapshot; a constellation study wants
// a *sweep* — the same demand set replayed across a time grid while the
// topology drifts underneath it. runFlowSweep() drives that loop: one
// IncrementalTopology produces each step's CompactGraph
// (topology/delta.hpp), one routing tree per distinct source is built on it
// with RouteEngine::batchShortestPathTrees (fanned over the thread pool),
// and one FlowSimulator slice runs per step over the routes those trees
// select.
//
// Determinism gate: every step folds its route node sequences and the
// slice's delivery-record checksum into one sweep checksum. Batch trees
// equal serial trees at any thread count, so the checksum does not depend
// on the thread count; tests pin it, and the per-step record checksums, to
// the values a fresh snapshot + per-step compile produced before the sweep
// moved onto IncrementalTopology (whose graphs are the same bit for bit).
#pragma once

#include <cstdint>
#include <vector>

#include <openspace/core/hash.hpp>
#include <openspace/sim/flow_sim.hpp>
#include <openspace/topology/builder.hpp>
#include <openspace/topology/delta.hpp>

namespace openspace {

/// One persistent demand: a flow offered on every step of the sweep, routed
/// over that step's shortest delay path (skipped on steps where dst is
/// unreachable from src — the packets would all drop NoRoute anyway).
struct FlowSweepDemand {
  NodeId src{};
  NodeId dst{};
  double rateBps = 1e6;
  double packetBits = 12'000.0;
};

struct FlowSweepConfig {
  double t0S = 0.0;
  double horizonS = 60.0;  ///< Sweep covers [t0S, t0S + horizonS).
  double stepS = 10.0;     ///< One topology + simulator slice per step.
  /// Per-slice simulator knobs. startS/durationS are overwritten per step;
  /// the seed is re-derived per step (FNV-mixed with the step index) so
  /// slices are decorrelated but reproducible.
  FlowSimConfig sim;
};

/// Per-step outcome, in grid order.
struct FlowSweepStep {
  double tS = 0.0;
  bool structural = false;  ///< The link set or its order changed.
  std::uint64_t packetsOffered = 0;
  std::uint64_t packetsDelivered = 0;
  std::uint64_t packetsDropped = 0;
  std::uint64_t recordChecksum = 0;  ///< The slice's delivery-record FNV.
};

struct FlowSweepReport {
  std::vector<FlowSweepStep> steps;
  std::uint64_t packetsOffered = 0;
  std::uint64_t packetsDelivered = 0;
  std::uint64_t packetsDropped = 0;
  std::size_t structuralSteps = 0;  ///< Steps whose link set changed.
  /// FNV-1a over every step's route node sequences and record checksum, in
  /// grid order — the sweep's determinism witness.
  std::uint64_t checksum = kFnvOffsetBasis;
};

/// Run `demands` across the sweep grid. Throws InvalidArgumentError for a
/// non-positive step/horizon or a demand with an unset endpoint; unknown
/// endpoints surface as NotFoundError from the routing layer on the first
/// step. The builder's registry must stay frozen for the duration.
FlowSweepReport runFlowSweep(const TopologyBuilder& builder,
                             const SnapshotOptions& opt,
                             const std::vector<FlowSweepDemand>& demands,
                             const FlowSweepConfig& cfg);

}  // namespace openspace
