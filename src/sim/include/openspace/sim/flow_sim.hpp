// Discrete-event flow simulation at constellation scale.
//
// The per-snapshot results so far are load-free: Figure 2's latency is pure
// propagation delay. FlowSimulator closes that gap — it drives Poisson
// packet flows through compiled-snapshot routes and per-direction link
// transmitters on the hierarchical timer wheel (net/scheduler.hpp), and
// reports what the analytic numbers cannot: queueing latency distributions,
// loss under buffer pressure, per-flow jitter and per-link utilization.
//
// FlowSimulator is the library's only packet engine: Scenario's traffic
// epochs and the city-flow pipeline both run on it. Its semantics are
// pinned to the legacy toy-scale stack (EventQueue + FlowGenerator +
// ForwardingEngine), which now lives in the test-only openspace_spec
// library (tests/spec/): given the same flows and RNG seed, the simulator
// reproduces the legacy delivery records bit-for-bit — same packet ids,
// timestamps, latencies, drop reasons, and completion order. Property
// tests and bench_flow_sim's gates enforce this; the legacy stack stays
// the executable spec.
//
// Scale comes from three changes, not from semantic shortcuts:
//  * timer-wheel scheduling of 12-byte POD event records (no per-event
//    closure allocation, no heap percolation);
//  * routes compiled once into flat directed-edge index arrays over the
//    CompactGraph (no hash lookups per hop);
//  * per-flow/per-edge state in dense arrays indexed by small integers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <openspace/core/hash.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/net/flows.hpp>
#include <openspace/net/metrics.hpp>
#include <openspace/net/packet.hpp>
#include <openspace/net/scheduler.hpp>
#include <openspace/topology/compact_graph.hpp>

namespace openspace {

class ConstellationSnapshot;
class RouteEngine;

// The FNV-1a mixing helpers (kFnvOffsetBasis / fnv1a / bitsOf) shared by the
// simulator's record checksum and the benches' serial==parallel /
// simulator==legacy gates live in core/hash.hpp.

/// Fold one delivery record into a running FNV checksum. Used identically
/// on legacy ForwardingEngine records and FlowSimulator records, so the
/// equivalence gates compare full record streams, not summaries.
std::uint64_t mixDeliveryRecord(std::uint64_t h, const DeliveryRecord& rec) noexcept;

/// Builder-style simulator configuration.
struct FlowSimConfig {
  double startS = 0.0;        ///< Simulation clock origin.
  double durationS = 1.0;     ///< Utilization denominator (reporting only).
  double maxQueueBits = 8e6;  ///< Per link-direction drop-tail buffer.
  double tickS = 1e-6;        ///< Timer-wheel bucketing granularity.
  std::uint64_t seed = 1;     ///< Poisson arrival RNG seed.

  FlowSimConfig& withStart(double s) { startS = s; return *this; }
  FlowSimConfig& withDuration(double s) { durationS = s; return *this; }
  FlowSimConfig& withQueueBits(double bits) { maxQueueBits = bits; return *this; }
  FlowSimConfig& withTick(double s) { tickS = s; return *this; }
  FlowSimConfig& withSeed(std::uint64_t s) { seed = s; return *this; }
};

/// Per-flow outcome summary.
struct FlowSummary {
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double meanLatencyS = 0.0;
  double minLatencyS = 0.0;
  double maxLatencyS = 0.0;
  /// Mean |latency delta| between consecutive delivered packets (RFC 3550
  /// style inter-arrival jitter, unsmoothed).
  double meanJitterS = 0.0;
};

/// What one run() produces.
struct FlowSimReport {
  std::uint64_t packetsOffered = 0;
  std::uint64_t packetsDelivered = 0;
  std::uint64_t packetsDropped = 0;
  std::uint64_t eventsExecuted = 0;
  LatencyStats latency;             ///< Aggregate over all flows.
  std::vector<FlowSummary> flows;   ///< By flow index (addFlow order).
  /// Per directed CSR edge (CompactGraph edge index): bits offered to the
  /// transmitter, and utilization = bits / (capacity * durationS). Backlogs
  /// queued before startS + durationS drain to completion after the horizon,
  /// so a saturated edge can report utilization > 1.
  std::vector<double> edgeBitsCarried;
  std::vector<double> edgeUtilization;
  /// FNV-1a over every delivery record in completion order.
  std::uint64_t recordChecksum = kFnvOffsetBasis;
};

/// Event-driven flow simulator over one compiled topology snapshot.
/// Single-shot: configure, add paths/flows, run() once.
class FlowSimulator {
 public:
  /// Flows with this path id drop every packet with DropReason::NoRoute —
  /// the legacy invalid-route behavior.
  static constexpr std::uint32_t kNoPath = 0xFFFFFFFFu;

  /// Throws InvalidArgumentError for a null graph or non-positive queue
  /// limit / tick.
  explicit FlowSimulator(std::shared_ptr<const CompactGraph> graph,
                         FlowSimConfig cfg = {});

  /// Compile `route` into directed edge indices; returns a path id shared
  /// by any number of flows. Throws InvalidArgumentError if the route is
  /// invalid or traverses an edge the compiled graph dropped, NotFoundError
  /// for nodes absent from the snapshot.
  std::uint32_t addPath(const Route& route);

  /// Register a flow on a previously added path (or kNoPath). Throws
  /// InvalidArgumentError on non-positive rate/size or if the path
  /// endpoints do not match the flow's src/dst (the legacy send() check,
  /// moved to registration time). Returns the flow index.
  std::uint32_t addFlow(const FlowSpec& flow, std::uint32_t pathId);

  /// Convenience: addPath + addFlow; an invalid route maps to kNoPath.
  std::uint32_t addFlow(const FlowSpec& flow, const Route& route);

  /// Optional per-record callback, field-identical to the legacy
  /// ForwardingEngine records (the equivalence tests hook this).
  void onComplete(std::function<void(const DeliveryRecord&)> cb);

  std::size_t flowCount() const noexcept { return flows_.size(); }

  /// Run to completion (all flows exhausted past their stopS). Single-shot:
  /// throws StateError on a second call.
  FlowSimReport run();

  /// Invariant audit of the event wheel (TimerWheel::audit): throws
  /// StateError on a broken bitmap, chain or free list.
  void audit() const { wheel_.audit(); }

 private:
  enum EvKind : std::uint32_t { kEmit = 0, kTxDone = 1, kArrive = 2 };
  struct Ev {
    std::uint32_t kind;
    std::uint32_t a;  ///< kEmit: flow index; kTxDone: edge; kArrive: packet slot.
    std::uint32_t b;  ///< kTxDone: flow index (drain size); else unused.
  };
  struct PathInfo {
    std::uint32_t off = 0;  ///< Into pathEdges_.
    std::uint32_t len = 0;
    NodeId src{};
    NodeId dst{};
  };
  struct FlowState {
    FlowSpec spec;
    std::uint32_t path = kNoPath;
    std::uint64_t offered = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    double latencySumS = 0.0;
    double minLatencyS = 0.0;
    double maxLatencyS = 0.0;
    double lastLatencyS = 0.0;
    double jitterSumS = 0.0;
  };
  struct PktState {
    double createdAtS = 0.0;
    PacketId id = 0;
    std::uint32_t flow = 0;
    std::uint32_t hop = 0;
    std::uint32_t next = 0;  ///< Free-list link.
  };
  struct EdgeState {
    double busyUntilS = 0.0;
    double backlogBits = 0.0;
  };

  void dispatch(double tS, const Ev& ev);
  void scheduleNextEmit(std::uint32_t flow, double afterS);
  void arrive(std::uint32_t pktSlot);
  void finish(std::uint32_t flowIdx, PacketId id, double createdAtS,
              std::uint32_t hops, bool delivered, DropReason reason);
  std::uint32_t allocPkt();
  void freePkt(std::uint32_t slot);

  std::shared_ptr<const CompactGraph> graph_;
  FlowSimConfig cfg_;
  TimerWheel<Ev> wheel_;
  Rng rng_;
  bool ran_ = false;

  std::vector<PathInfo> paths_;
  std::vector<std::uint32_t> pathEdges_;  ///< Flat directed-edge arena.
  std::vector<FlowState> flows_;
  std::vector<PktState> pkts_;
  std::uint32_t pktFreeHead_ = 0xFFFFFFFFu;
  std::vector<EdgeState> edges_;      ///< By CSR edge index.
  std::vector<double> bitsCarried_;   ///< By CSR edge index.

  PacketId nextPacketId_ = 1;
  std::uint64_t offered_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t checksum_ = kFnvOffsetBasis;
  LatencyStats stats_;
  std::function<void(const DeliveryRecord&)> onComplete_;
};

/// City-weighted traffic synthesis for one snapshot (paper §5(1)): sample
/// a world-model user base, associate each user to its serving satellite
/// via the footprint index, and offer one uplink flow per served user from
/// that satellite to the best-reachable gateway.
struct CityFlowConfig {
  int users = 10'000;
  double meanRateBps = 20e3;    ///< Scaled by user weight, diurnal factor
                                ///< and a per-user uniform jitter in [0.5, 1.5).
  double packetBits = 12'000.0;
  double startS = 0.0;
  double durationS = 1.0;
  double minElevationRad = 0.0;
  double utcSeconds = 0.0;      ///< Time of day for the diurnal demand curve.
  double ruralFraction = 0.3;
  std::uint64_t seed = 1;
};

/// One flow per served user; users with no visible satellite (or whose
/// satellite reaches no gateway) are counted, not offered.
struct CityFlows {
  std::vector<FlowSpec> specs;
  /// Per spec: index into `routes` (== serving satellite index).
  std::vector<std::uint32_t> routeOf;
  /// Per satellite: route to its cheapest-reachable gateway (invalid when
  /// no gateway is reachable).
  std::vector<Route> routes;
  std::size_t unservedUsers = 0;
  /// FNV-1a over the generated specs — the serial==parallel determinism
  /// witness (user association and rate jitter run on the thread pool).
  std::uint64_t checksum = kFnvOffsetBasis;
};

/// Deterministic at any thread count: users are sampled on one RNG stream
/// and the specs folded into the checksum in user order, each one 512-user
/// chunk at a time in chunk order, while association runs on any thread in
/// between; the rate jitter draws from 4096-user blocks with block-seeded
/// RNGs. `satNodes[i]` must be the NodeId of snapshot satellite i. Throws
/// InvalidArgumentError on a null snapshot, a negative user count, a
/// non-finite or non-positive rate, packet size or duration, a non-finite
/// start, stop, time of day or elevation mask, or a rural fraction outside
/// [0, 1].
CityFlows buildCityFlows(const CityFlowConfig& cfg,
                         std::shared_ptr<const ConstellationSnapshot> snapshot,
                         const std::vector<NodeId>& satNodes,
                         const std::vector<NodeId>& gateways,
                         const RouteEngine& engine);

}  // namespace openspace
