#include <openspace/sim/scenario.hpp>

#include <openspace/geo/error.hpp>
#include <openspace/net/flows.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/sim/flow_sim.hpp>

namespace openspace {

Scenario::Scenario(const ScenarioConfig& cfg)
    : cfg_(cfg), beacons_(cfg.beaconPeriodS) {
  if (cfg.providers.empty()) {
    throw InvalidArgumentError("Scenario: at least one provider required");
  }
  int totalSats = 0;
  for (const auto& p : cfg.providers) {
    if (p.satellites <= 0) {
      throw InvalidArgumentError("Scenario: provider '" + p.name +
                                 "' must contribute satellites");
    }
    totalSats += p.satellites;
  }

  // --- publish orbits ----------------------------------------------------
  if (cfg.coordinatedWalker) {
    WalkerConfig wc;
    // Round total up to a multiple of the plane count; surplus slots stay
    // unfilled (satellites are assigned round-robin from the plan).
    const int planes = std::max(1, cfg.walkerPlanes);
    const int perPlane = (totalSats + planes - 1) / planes;
    wc.totalSatellites = perPlane * planes;
    wc.planes = planes;
    wc.phasing = 1 % planes;
    wc.altitudeM = cfg.altitudeM;
    wc.inclinationRad = cfg.inclinationRad;
    const auto plan = makeWalkerStar(wc);
    std::size_t slot = 0;
    for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
      for (int s = 0; s < cfg.providers[p].satellites; ++s) {
        ephemeris_.publish(providerId(p), plan[slot++]);
      }
    }
  } else {
    Rng rng(cfg.seed);
    for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
      const auto sats =
          makeRandomConstellation(cfg.providers[p].satellites, cfg.altitudeM, rng);
      for (const auto& el : sats) ephemeris_.publish(providerId(p), el);
    }
  }

  // --- capabilities (laser fractions) -------------------------------------
  builder_ = std::make_unique<TopologyBuilder>(ephemeris_);
  for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
    const auto fleet = ephemeris_.satellitesOf(providerId(p));
    const auto laserCount = static_cast<std::size_t>(
        cfg.providers[p].laserFraction * static_cast<double>(fleet.size()) + 0.5);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      LinkCapabilities caps;
      caps.islBands = {Band::S, Band::Uhf};
      caps.hasLaserTerminal = i < laserCount;
      caps.maxIslCount = 4;
      builder_->setCapabilities(fleet[i], caps);
    }
  }

  // --- ground segment ------------------------------------------------------
  for (const auto& st : cfg.stations) {
    if (st.ownerProviderIndex >= cfg.providers.size()) {
      throw InvalidArgumentError("Scenario: station owner index out of range");
    }
    GroundSite site{st.name, st.location, providerId(st.ownerProviderIndex)};
    stations_.push_back(builder_->addGroundStation(site));
  }

  // --- users + AAA ----------------------------------------------------------
  for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
    radius_.emplace_back(providerId(p),
                         0xC0FFEE00ull + static_cast<std::uint64_t>(p));
  }
  for (std::size_t u = 0; u < cfg.users.size(); ++u) {
    const auto& us = cfg.users[u];
    if (us.homeProviderIndex >= cfg.providers.size()) {
      throw InvalidArgumentError("Scenario: user home provider out of range");
    }
    GroundSite site{us.name, us.location, providerId(us.homeProviderIndex)};
    userNodes_.push_back(builder_->addUser(site));
    const auto secret = 0xAB5EED00ull + static_cast<std::uint64_t>(u);
    radius_[us.homeProviderIndex].enroll(static_cast<UserId>(u + 1), secret);
    agents_.emplace_back(static_cast<UserId>(u + 1),
                         providerId(us.homeProviderIndex), secret, us.location);
  }

  // --- settlement ------------------------------------------------------------
  for (std::size_t p = 0; p < cfg.providers.size(); ++p) {
    settlement_.addProvider(providerId(p));
    settlement_.setTariff(
        {providerId(p), ProviderId{}, cfg.providers[p].transitTariffUsdPerGb});
  }
}

ProviderId Scenario::providerId(std::size_t index) const {
  if (index >= cfg_.providers.size()) {
    throw InvalidArgumentError("Scenario::providerId: index out of range");
  }
  return ProviderId{static_cast<ProviderId::rep_type>(index + 1)};
}

NetworkGraph Scenario::snapshot(double tSeconds) const {
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  opt.nearestK = 4;
  opt.minElevationRad = cfg_.minElevationRad;
  return builder_->snapshot(tSeconds, opt);
}

std::vector<BeaconMessage> Scenario::beaconsAt(double tSeconds) const {
  std::vector<BeaconMessage> out;
  for (const SatelliteId sid : ephemeris_.satellites()) {
    const auto& rec = ephemeris_.record(sid);
    BeaconMessage b;
    b.satellite = sid;
    b.provider = rec.owner;
    b.txTimeS = tSeconds;
    b.elements = rec.elements;
    b.capabilities = builder_->capabilities(sid);
    out.push_back(std::move(b));
  }
  return out;
}

NodeId Scenario::userNode(std::size_t userIndex) const {
  if (userIndex >= userNodes_.size()) {
    throw InvalidArgumentError("Scenario::userNode: index out of range");
  }
  return userNodes_[userIndex];
}

GroundStationId Scenario::stationId(std::size_t stationIndex) const {
  if (stationIndex >= stations_.size()) {
    throw InvalidArgumentError("Scenario::stationId: index out of range");
  }
  return stations_[stationIndex];
}

NodeId Scenario::stationNode(std::size_t stationIndex) const {
  return builder_->nodeOf(stationId(stationIndex));
}

NodeId Scenario::homeGatewayOf(std::size_t userIndex) const {
  if (userIndex >= cfg_.users.size()) {
    throw InvalidArgumentError("Scenario::homeGatewayOf: index out of range");
  }
  const std::size_t home = cfg_.users[userIndex].homeProviderIndex;
  for (std::size_t s = 0; s < cfg_.stations.size(); ++s) {
    if (cfg_.stations[s].ownerProviderIndex == home) {
      return builder_->nodeOf(stations_[s]);
    }
  }
  throw NotFoundError("Scenario: user's home provider owns no ground station");
}

AssociationResult Scenario::associateUser(std::size_t userIndex, double tSeconds) {
  if (userIndex >= agents_.size()) {
    throw InvalidArgumentError("Scenario::associateUser: index out of range");
  }
  const NetworkGraph g = snapshot(tSeconds);
  const std::size_t home = cfg_.users[userIndex].homeProviderIndex;
  return agents_[userIndex].associate(beaconsAt(tSeconds), g, *builder_,
                                      radius_[home], homeGatewayOf(userIndex),
                                      tSeconds, cfg_.minElevationRad, beacons_);
}

/// One runTraffic() result: the compiled graph the flows ran on, every
/// user's route, and the flows in simulator order with their user index.
struct Scenario::TrafficRun {
  std::shared_ptr<const CompactGraph> graph;
  std::vector<Route> routes;  ///< Per user; invalid when unreachable.
  std::vector<FlowSpec> flows;
  std::vector<std::size_t> flowUser;
  FlowSimReport report;
};

Scenario::TrafficRun Scenario::runTraffic(const NetworkGraph& g,
                                          const LinkCostFn& cost,
                                          double startS, double durationS,
                                          double rateBps, QosClass qos) {
  const RouteEngine engine(g, cost);
  TrafficRun run;
  run.graph = engine.sharedGraph();
  FlowSimulator sim(run.graph, FlowSimConfig{}
                                   .withStart(startS)
                                   .withDuration(durationS)
                                   .withSeed(cfg_.seed + trafficRuns_++));
  run.routes.resize(cfg_.users.size());
  for (std::size_t u = 0; u < cfg_.users.size(); ++u) {
    const NodeId gateway = homeGatewayOf(u);
    run.routes[u] = engine.shortestPath(userNodes_[u], gateway);
    if (!run.routes[u].valid()) continue;  // uncovered user offers no traffic
    FlowSpec flow;
    flow.src = userNodes_[u];
    flow.dst = gateway;
    flow.rateBps = rateBps;
    flow.qos = qos;
    flow.homeProvider = providerId(cfg_.users[u].homeProviderIndex);
    flow.startS = startS;
    flow.stopS = startS + durationS;
    sim.addFlow(flow, run.routes[u]);
    run.flows.push_back(flow);
    run.flowUser.push_back(u);
  }
  run.report = sim.run();
  return run;
}

AdaptiveReport Scenario::runAdaptiveEpochs(double tSeconds, int epochs,
                                           double epochDurationS,
                                           double rateBps) {
  if (epochs < 1) {
    throw InvalidArgumentError("runAdaptiveEpochs: epochs must be >= 1");
  }
  if (epochDurationS <= 0.0 || rateBps <= 0.0) {
    throw InvalidArgumentError(
        "runAdaptiveEpochs: duration and rate must be > 0");
  }
  NetworkGraph g = snapshot(tSeconds);  // shared, mutated between epochs
  AdaptiveReport rep;
  std::vector<Route> prevRoutes(cfg_.users.size());

  for (int e = 0; e < epochs; ++e) {
    const double epochStart = tSeconds + e * epochDurationS;
    TrafficRun run = runTraffic(g, latencyCost(), epochStart, epochDurationS,
                                rateBps, QosClass::Standard);
    for (std::size_t u = 0; u < cfg_.users.size(); ++u) {
      if (e > 0 && run.routes[u].valid() && prevRoutes[u].valid() &&
          run.routes[u].nodes != prevRoutes[u].nodes) {
        ++rep.reroutedFlows;
      }
    }
    const LatencyStats& latency = run.report.latency;
    rep.epochMeanLatencyS.push_back(latency.count() > 0 ? latency.meanS() : 0.0);
    rep.epochLossRate.push_back(latency.lossRate());
    rep.totalDelivered += run.report.packetsDelivered;
    rep.totalDropped += run.report.packetsDropped;
    prevRoutes = std::move(run.routes);

    // Feedback: measured utilization (bits over both directions of the
    // link) -> queueing-delay estimates on the shared graph for the next
    // epoch's route computation.
    for (const LinkId lid : g.links()) {
      Link& l = g.link(lid);
      double bits = 0.0;
      for (const std::uint32_t edge : run.graph->edgesOfLink(lid)) {
        bits += run.report.edgeBitsCarried[edge];
      }
      const double utilization = bits / (l.capacityBps * epochDurationS);
      l.queueingDelayS = (utilization > 0.0)
                             ? estimateQueueingDelayS(utilization, l.capacityBps)
                             : 0.0;
    }
  }
  return rep;
}

TrafficReport Scenario::runTrafficEpoch(double tSeconds, double durationS,
                                        double rateBps, QosClass qos) {
  if (durationS <= 0.0 || rateBps <= 0.0) {
    throw InvalidArgumentError("runTrafficEpoch: duration and rate must be > 0");
  }
  const NetworkGraph g = snapshot(tSeconds);
  const TrafficRun run =
      runTraffic(g, makeCostFunction(CostWeights::forQos(qos)), tSeconds,
                 durationS, rateBps, qos);

  // Settle each flow once: all of its delivered packets took its one route.
  for (std::size_t i = 0; i < run.flows.size(); ++i) {
    const std::uint64_t delivered = run.report.flows[i].delivered;
    if (delivered == 0) continue;
    const FlowSpec& flow = run.flows[i];
    settlement_.recordRouteTraffic(
        g, run.routes[run.flowUser[i]], flow.homeProvider,
        static_cast<double>(delivered) * (flow.packetBits / 8.0));
  }

  TrafficReport rep;
  rep.packetsOffered = run.report.packetsOffered;
  rep.packetsDelivered = run.report.packetsDelivered;
  rep.packetsDropped = run.report.packetsDropped;
  const LatencyStats& latency = run.report.latency;
  if (latency.count() > 0) {
    rep.meanLatencyS = latency.meanS();
    rep.p95LatencyS = latency.p95S();
  }
  rep.lossProbability = latency.lossRate();
  rep.ledgersCrossVerified = settlement_.crossVerify();
  rep.settlement = settlement_.settle();
  for (const auto& item : rep.settlement) rep.totalSettlementUsd += item.amountUsd;
  return rep;
}

}  // namespace openspace
