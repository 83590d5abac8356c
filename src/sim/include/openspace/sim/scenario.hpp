// End-to-end multi-provider scenario orchestration.
//
// A Scenario assembles everything the paper describes into one runnable
// system: several independent providers publish satellites to the shared
// ephemeris, ground stations and users sit at fixed sites, users associate
// and authenticate with their home ISP through ISLs, traffic flows through
// heterogeneous links, and every carried byte lands in the settlement
// ledgers. Examples and integration tests drive this type; the benchmarks
// use it for the ablation studies. Traffic runs on the library's one packet
// engine, FlowSimulator (sim/flow_sim.hpp), over routes from one RouteEngine
// per snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include <openspace/auth/association.hpp>
#include <openspace/econ/ledger.hpp>
#include <openspace/sim/fig2.hpp>

namespace openspace {

/// One provider joining the scenario.
struct ProviderSpec {
  std::string name;
  int satellites = 0;
  double laserFraction = 0.0;  ///< Fraction of the fleet with laser terminals.
  double transitTariffUsdPerGb = 0.05;  ///< Default rate charged to others.
};

/// One subscriber terminal.
struct UserSpec {
  std::string name;
  Geodetic location;
  std::size_t homeProviderIndex = 0;  ///< Index into ScenarioConfig::providers.
};

/// One gateway site.
struct StationSpec {
  std::string name;
  Geodetic location;
  std::size_t ownerProviderIndex = 0;
};

/// Scenario configuration.
struct ScenarioConfig {
  std::vector<ProviderSpec> providers;
  std::vector<StationSpec> stations;
  std::vector<UserSpec> users;
  double altitudeM = 780'000.0;
  /// true: all fleets are coordinated into one Walker-Star-like structure
  /// (phased planes split across providers). false: every provider's
  /// satellites fly independent random orbits (the uncoordinated case).
  bool coordinatedWalker = false;
  int walkerPlanes = 6;
  double inclinationRad = 1.508;  ///< ~86.4 deg.
  double minElevationRad = 0.1745;
  double beaconPeriodS = 2.0;
  std::uint64_t seed = 42;
};

/// Result of one adaptive simulation run (see runAdaptiveEpochs).
struct AdaptiveReport {
  /// Per-epoch mean latency; adaptation shows as epoch 0 (uninformed
  /// routes) being slower than later epochs once congestion state feeds
  /// back into route choice.
  std::vector<double> epochMeanLatencyS;
  std::vector<double> epochLossRate;
  std::size_t totalDelivered = 0;
  std::size_t totalDropped = 0;
  int reroutedFlows = 0;  ///< Flows whose path changed after feedback.
};

/// Result of one traffic epoch.
struct TrafficReport {
  std::size_t packetsOffered = 0;
  std::size_t packetsDelivered = 0;
  std::size_t packetsDropped = 0;
  double meanLatencyS = 0.0;
  double p95LatencyS = 0.0;
  double lossProbability = 0.0;
  bool ledgersCrossVerified = false;
  std::vector<SettlementItem> settlement;
  double totalSettlementUsd = 0.0;
};

class Scenario {
 public:
  /// Builds the whole system: ephemeris, capabilities, topology builder,
  /// RADIUS servers, settlement tariffs. Throws InvalidArgumentError on an
  /// empty provider list or providers without satellites.
  explicit Scenario(const ScenarioConfig& cfg);

  /// Providers are identified 1..N in config order.
  ProviderId providerId(std::size_t index) const;

  /// Topology snapshot at time t (nearest-k ISL wiring).
  NetworkGraph snapshot(double tSeconds) const;

  /// Associate user `userIndex` at time t against the snapshot: beacon
  /// scan, RADIUS over ISLs to the home provider's gateway, certificate.
  AssociationResult associateUser(std::size_t userIndex, double tSeconds);

  /// Run a traffic epoch: each user sends Poisson traffic at `rateBps` to
  /// its home provider's gateway over the cheapest route under the `qos`
  /// cost model (users with no route offer nothing); carried bytes are
  /// settled per §3. Every traffic run of a scenario — each call here and
  /// each epoch of runAdaptiveEpochs — is numbered k = 0, 1, ... in call
  /// order and draws its arrivals from seed `config().seed + k`, so two
  /// scenarios built from one config report identically run for run.
  TrafficReport runTrafficEpoch(double tSeconds, double durationS,
                                double rateBps, QosClass qos = QosClass::Standard);

  /// The §2.2/§5(2) closed loop: run `epochs` consecutive traffic epochs on
  /// the time-t snapshot. After each epoch, per-link utilization measured
  /// by the flow simulator is converted into queueing-delay estimates
  /// (M/M/1) on the shared graph, and routes are recomputed — congestion
  /// the proactive table could not predict is discovered and avoided.
  /// Throws InvalidArgumentError for epochs < 1 or non-positive
  /// duration/rate. Epochs are traffic runs (see runTrafficEpoch for their
  /// seeds); they do not touch the settlement ledgers.
  AdaptiveReport runAdaptiveEpochs(double tSeconds, int epochs,
                                   double epochDurationS, double rateBps);

  const EphemerisService& ephemeris() const noexcept { return ephemeris_; }
  const TopologyBuilder& topology() const noexcept { return *builder_; }
  SettlementEngine& settlement() noexcept { return settlement_; }
  NodeId userNode(std::size_t userIndex) const;
  /// Typed handle of station `stationIndex` (config order).
  GroundStationId stationId(std::size_t stationIndex) const;
  NodeId stationNode(std::size_t stationIndex) const;
  NodeId homeGatewayOf(std::size_t userIndex) const;
  const ScenarioConfig& config() const noexcept { return cfg_; }

  /// All beacons audible anywhere at time t (the shared broadcast medium;
  /// per-user RF range filtering happens at selection via the elevation
  /// mask).
  std::vector<BeaconMessage> beaconsAt(double tSeconds) const;

 private:
  struct TrafficRun;

  /// The shared traffic loop: routes every user to its home gateway with
  /// one RouteEngine over `g` under `cost`, then runs one Poisson flow per
  /// routed user through a FlowSimulator on the engine's compiled graph.
  TrafficRun runTraffic(const NetworkGraph& g, const LinkCostFn& cost,
                        double startS, double durationS, double rateBps,
                        QosClass qos);

  ScenarioConfig cfg_;
  EphemerisService ephemeris_;
  std::unique_ptr<TopologyBuilder> builder_;
  std::vector<RadiusServer> radius_;  ///< One per provider.
  std::vector<AssociationAgent> agents_;
  std::vector<NodeId> userNodes_;
  std::vector<GroundStationId> stations_;
  SettlementEngine settlement_;
  BeaconSchedule beacons_;
  std::uint64_t trafficRuns_ = 0;  ///< Traffic runs so far (seed offset).
};

}  // namespace openspace
