// Time-expanded (contact-graph) routing.
//
// The paper's §4 shows sparse early deployments: with few satellites there
// is often *no contemporaneous path* between a user and a gateway — but
// because the topology's evolution is publicly predictable, a message can
// still be delivered by store-carry-forward: a satellite holds the data
// while it orbits and forwards when the next contact opens (the DTN
// pattern; the backbone of the "incremental deployment" story, since a
// half-built OpenSpace is a delay-tolerant network before it is a
// real-time one).
//
// ContactGraphRouter computes earliest-arrival delivery over the predicted
// snapshot sequence: within a snapshot interval packets move at link speed;
// across intervals they may wait on any node. One IncrementalTopology
// compiles each interval's snapshot into a CSR CompactGraph (edge weight =
// total link delay), so a query runs label-correcting Dijkstra over flat
// arrays indexed by dense node id — no hash-map graph walk per interval.
#pragma once

#include <memory>

#include <openspace/topology/builder.hpp>
#include <openspace/topology/compact_graph.hpp>
#include <openspace/topology/delta.hpp>

namespace openspace {

/// Result of an earliest-arrival query.
struct TemporalRoute {
  bool reachable = false;
  double departureS = 0.0;
  double arrivalS = 0.0;
  double inFlightS = 0.0;  ///< Cumulative link (propagation) time.
  double waitingS = 0.0;   ///< Time stored on nodes awaiting contacts.
  int hops = 0;            ///< Links traversed across all intervals.
  int intervalsUsed = 0;   ///< Snapshot intervals touched (>= 1 if reachable).

  double totalDelayS() const noexcept { return arrivalS - departureS; }
};

/// Earliest-arrival router over a precomputed snapshot grid.
class ContactGraphRouter {
 public:
  /// Precomputes snapshots on {t0S, t0S+step, ...} covering [t0S, t0S+horizon].
  /// Throws InvalidArgumentError for non-positive step/horizon. Satellite
  /// positions come from the shared SnapshotCache, so repeated sweeps over
  /// one window hit the LRU.
  ContactGraphRouter(const TopologyBuilder& builder, const SnapshotOptions& opt,
                     double t0S, double horizonS, double stepS);

  /// Earliest arrival of a message from `src` (ready at `tStartS`) to `dst`,
  /// allowing storage at intermediate nodes between snapshot intervals.
  /// Unreachable within the horizon => reachable == false. Throws
  /// NotFoundError for nodes absent from the snapshots.
  TemporalRoute earliestArrival(NodeId src, NodeId dst, double tStartS) const;

  double horizonEndS() const noexcept { return gridEndS_; }

 private:
  struct Interval {
    double startS;
    double endS;
    /// Compiled snapshot; edgeCost() == the link's total delay in seconds.
    /// Every interval's graph shares one IncrementalTopology's node table,
    /// so per-node labels carry over between intervals as flat arrays
    /// without translation.
    std::shared_ptr<const CompactGraph> csr;
  };
  std::vector<Interval> snaps_;
  double gridEndS_ = 0.0;
};

}  // namespace openspace
