// Microbenchmarks of the hot kernels: orbit propagation, topology snapshot,
// shortest paths (Iridium and the 5,040-satellite Delta, under delay and QoS
// costs), the session sweep's handover epochs on that Delta, Monte-Carlo
// coverage, ISL fleet discovery.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include <openspace/coverage/coverage.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/isl/fleet.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/sim/flow_sim.hpp>
#include <openspace/sim/population.hpp>
#include <openspace/spec/routing_legacy.hpp>
#include <openspace/topology/builder.hpp>
#include <openspace/topology/delta.hpp>

namespace {

using namespace openspace;

void BM_Propagate(benchmark::State& state) {
  const auto el = OrbitalElements::circular(km(780.0), deg2rad(86.4), 0.3, 0.7);
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(positionEci(el, t));
    t += 1.0;
  }
}
BENCHMARK(BM_Propagate);

void BM_KeplerEccentric(benchmark::State& state) {
  double m = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solveKepler(m, 0.7));
    m += 0.01;
  }
}
BENCHMARK(BM_KeplerEccentric);

void BM_Snapshot(benchmark::State& state) {
  EphemerisService eph;
  WalkerConfig wc = iridiumConfig();
  wc.totalSatellites = static_cast<int>(state.range(0));
  wc.planes = 6;
  wc.totalSatellites -= wc.totalSatellites % 6;
  for (const auto& el : makeWalkerStar(wc)) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::NearestNeighbors;
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo.snapshot(t, opt));
    t += 10.0;
  }
}
BENCHMARK(BM_Snapshot)->Arg(24)->Arg(66)->Arg(120);

NetworkGraph iridiumPlusGridSnapshot(EphemerisService& eph) {
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  return topo.snapshot(0.0, opt);
}

/// Fixed pseudo-random (src, dst) satellite pairs so the engine and legacy
/// point-query benchmarks run an identical query schedule with no per-
/// iteration index arithmetic in the timed loop.
std::vector<std::pair<NodeId, NodeId>> dijkstraQueryPairs(const NetworkGraph& g) {
  const auto nodes = g.nodesOfKind(NodeKind::Satellite);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    pairs.emplace_back(nodes[i], nodes[(i * 7 + 13) % nodes.size()]);
  }
  return pairs;
}

/// Point-to-point Dijkstra on the production path: the snapshot is compiled
/// once into a RouteEngine and every query reuses its scratch arena.
void BM_Dijkstra(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const RouteEngine engine(g, latencyCost());
  const auto pairs = dijkstraQueryPairs(g);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(engine.shortestPath(src, dst));
  }
}
BENCHMARK(BM_Dijkstra);

/// The same queries priced as scenario traffic prices its routes,
/// makeCostFunction(CostWeights::forQos(QosClass::Standard)): delay plus
/// bandwidth, tariff and per-hop terms, a cost range unlike the delay's.
void BM_DijkstraQos(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const RouteEngine engine(
      g, makeCostFunction(CostWeights::forQos(QosClass::Standard)));
  const auto pairs = dijkstraQueryPairs(g);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(engine.shortestPath(src, dst));
  }
}
BENCHMARK(BM_DijkstraQos);

/// The pre-engine reference path: hash-map graph walk, cost callback per
/// edge, fresh allocations per query. Kept for the before/after ratio.
void BM_DijkstraLegacy(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const auto cost = latencyCost();
  const auto pairs = dijkstraQueryPairs(g);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [src, dst] = pairs[i++ % pairs.size()];
    benchmark::DoNotOptimize(legacy::shortestPath(g, src, dst, cost));
  }
}
BENCHMARK(BM_DijkstraLegacy);

/// Single-source Dijkstra proper: the full tree from one satellite. The
/// engine returns a compact PathTree (two flat arrays); the legacy free
/// function materializes a Route per reachable destination. Same query
/// schedule for both.
void BM_ShortestPathTree(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const RouteEngine engine(g, latencyCost());
  const auto nodes = g.nodesOfKind(NodeKind::Satellite);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.shortestPathTree(nodes[i++ % nodes.size()]));
  }
}
BENCHMARK(BM_ShortestPathTree);

/// The mega-5k graph: a 5,040-satellite Walker Delta (72 planes, 550 km,
/// 53 degrees), PlusGrid ISLs capped at 3,000 km and six gateways behind a
/// 10 degree mask, priced by delay, at t = 0.
struct Delta5040 {
  EphemerisService eph;
  std::unique_ptr<TopologyBuilder> topo;
  std::unique_ptr<IncrementalTopology> inc;
  std::vector<NodeId> gateways;
  SnapshotOptions opt;

  Delta5040() {
    for (const auto& el :
         makeWalkerDelta({5'040, 72, 1, km(550.0), deg2rad(53.0)})) {
      eph.publish(ProviderId{1}, el);
    }
    topo = std::make_unique<TopologyBuilder>(eph);
    const double sites[][2] = {{48.86, 2.35},    {39.74, -104.99},
                               {-26.20, 28.05},  {-33.87, 151.21},
                               {-23.55, -46.63}, {35.68, 139.69}};
    for (const auto& site : sites) {
      gateways.push_back(topo->nodeOf(topo->addGroundStation(
          {"gw", Geodetic::fromDegrees(site[0], site[1]), ProviderId{2}})));
    }
    opt.wiring = IslWiring::PlusGrid;
    opt.planes = 72;
    opt.maxIslRangeM = km(3'000.0);
    opt.minElevationRad = deg2rad(10.0);
    opt.includeUserLinks = false;
    inc = std::make_unique<IncrementalTopology>(*topo, opt);
    inc->step(0.0);
  }
};

/// The same query on the mega-5k graph: each iteration is one gateway's
/// tree over the 5,046 nodes, as the per-epoch gateway trees run.
void BM_ShortestPathTreeDelta5040(benchmark::State& state) {
  const Delta5040 delta;
  const RouteEngine engine(delta.inc->graph());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.shortestPathTree(delta.gateways[i++ % delta.gateways.size()]));
  }
}
BENCHMARK(BM_ShortestPathTreeDelta5040);

/// A point route on that graph between two far gateways (Paris and
/// Sydney), so the search's early stop at the target is timed too.
void BM_ShortestPathDelta5040(benchmark::State& state) {
  const Delta5040 delta;
  const RouteEngine engine(delta.inc->graph());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.shortestPath(delta.gateways[0], delta.gateways[3]));
  }
}
BENCHMARK(BM_ShortestPathDelta5040);

/// That route under the Standard QoS cost, as BM_DijkstraQos prices it,
/// on the same snapshot's links.
void BM_ShortestPathQosDelta5040(benchmark::State& state) {
  const Delta5040 delta;
  const RouteEngine engine(
      delta.topo->snapshot(0.0, delta.opt),
      makeCostFunction(CostWeights::forQos(QosClass::Standard)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.shortestPath(delta.gateways[0], delta.gateways[3]));
  }
}
BENCHMARK(BM_ShortestPathQosDelta5040);

/// One 60 s window of 15 s HandoverSweep::runEpoch calls on that Delta with
/// 2,000 population-sampled users, seeded at t = 0 by closest association
/// (as the mega-5k world seeds them). The window [225, 285] s holds the
/// first handover burst, so the time is mostly successor searches. Each
/// iteration seeds a fresh table and runs it to the window untimed; the
/// window's index and snapshot come from the caches after the first. Wall
/// time: the epochs fan their shards over the thread pool.
void BM_SessionEpochsDelta5040(benchmark::State& state) {
  EphemerisService eph;
  for (const auto& el : makeWalkerDelta({5'040, 72, 1, km(550.0), deg2rad(53.0)})) {
    eph.publish(ProviderId{1}, el);
  }
  SweepConfig cfg;
  cfg.minElevationRad = deg2rad(10.0);
  const HandoverSweep sweep(eph, cfg);
  Rng rng(1);
  std::vector<SessionSeed> seeds;
  for (const SampledUser& u :
       defaultWorldPopulation().sampleUsers(2'000, rng)) {
    seeds.push_back(SessionSeed{static_cast<UserId>(seeds.size() + 1),
                                u.location, 1.0e9, seeds.size()});
  }
  const double windowS = 225.0;
  std::size_t handovers = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SessionTable table(eph.size());
    sweep.seed(table, seeds, 0.0, SeedMode::ClosestAssociation);
    for (double t = 15.0; t <= windowS; t += 15.0) sweep.runEpoch(table, t);
    state.ResumeTiming();
    for (double t = windowS + 15.0; t <= windowS + 60.0; t += 15.0) {
      const EpochStats stats = sweep.runEpoch(table, t);
      benchmark::DoNotOptimize(stats);
      handovers += stats.handovers;
    }
  }
  state.counters["handovers"] = benchmark::Counter(
      static_cast<double>(handovers), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SessionEpochsDelta5040)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ShortestPathTreeLegacy(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const auto cost = latencyCost();
  const auto nodes = g.nodesOfKind(NodeKind::Satellite);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        legacy::shortestPathTree(g, nodes[i++ % nodes.size()], cost));
  }
}
BENCHMARK(BM_ShortestPathTreeLegacy);

/// One-shot CSR compilation cost: what every RouteEngine constructor pays,
/// and what a caller amortizes by issuing all of a snapshot's queries on
/// one engine.
void BM_RouteEngineCompile(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const auto cost = latencyCost();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RouteEngine(g, cost));
  }
}
BENCHMARK(BM_RouteEngineCompile);

/// All-source tree batch over the process thread pool (deterministic
/// fan-out; results bit-identical to serial).
void BM_BatchTrees(benchmark::State& state) {
  EphemerisService eph;
  const NetworkGraph g = iridiumPlusGridSnapshot(eph);
  const RouteEngine engine(g, latencyCost());
  const auto sources = g.nodesOfKind(NodeKind::Satellite);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.batchShortestPathTrees(sources));
  }
}
BENCHMARK(BM_BatchTrees);

/// One canonical draw: an engine word converted to a double in [0, 1).
void BM_RngCanonical(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.canonical());
}
BENCHMARK(BM_RngCanonical);

/// One normal(0, 1) draw: a Marsaglia polar pair, ~2.5 canonical draws.
void BM_RngNormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal(0.0, 1.0));
}
BENCHMARK(BM_RngNormal);

/// 20,000 users from the default world model (30 % rural), as one
/// iridium-hour epoch's city flows draw them.
void BM_SampleUsers20k(benchmark::State& state) {
  const PopulationModel world = defaultWorldPopulation();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Rng rng(seed++);
    benchmark::DoNotOptimize(world.sampleUsers(20'000, rng));
  }
}
BENCHMARK(BM_SampleUsers20k)->Unit(benchmark::kMillisecond);

/// One iridium-hour buildCityFlows call: 20,000 users on the Iridium
/// PlusGrid snapshot with six gateways (trees, sampling, association,
/// compaction and checksum). The footprint index comes from the cache
/// after the first call. Wall time: association fans over the thread pool.
void BM_BuildCityFlowsIridium20k(benchmark::State& state) {
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  const struct {
    const char* name;
    double latDeg, lonDeg;
  } sites[] = {{"paris", 48.86, 2.35},       {"denver", 39.74, -104.99},
               {"jburg", -26.20, 28.05},     {"sydney", -33.87, 151.21},
               {"saopaulo", -23.55, -46.63}, {"tokyo", 35.68, 139.69}};
  std::vector<NodeId> gateways;
  for (const auto& site : sites) {
    gateways.push_back(topo.nodeOf(topo.addGroundStation(
        {site.name, Geodetic::fromDegrees(site.latDeg, site.lonDeg),
         ProviderId{1}})));
  }
  std::vector<NodeId> satNodes;
  for (const SatelliteId sid : eph.satellites()) satNodes.push_back(topo.nodeOf(sid));
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  opt.includeUserLinks = false;
  const RouteEngine engine(topo.snapshot(0.0, opt), latencyCost());
  const auto snap = std::make_shared<const ConstellationSnapshot>(eph, 0.0);
  CityFlowConfig cfg;
  cfg.users = 20'000;
  cfg.meanRateBps = 250.0;
  cfg.durationS = 0.25;
  cfg.minElevationRad = deg2rad(10.0);
  cfg.utcSeconds = 12.0 * 3'600.0;
  for (auto _ : state) {
    ++cfg.seed;
    benchmark::DoNotOptimize(buildCityFlows(cfg, snap, satNodes, gateways, engine));
  }
}
BENCHMARK(BM_BuildCityFlowsIridium20k)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_MonteCarloCoverage(benchmark::State& state) {
  const auto sats = makeWalkerStar(iridiumConfig());
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        monteCarloCoverage(sats, 0.0, deg2rad(10.0),
                           static_cast<int>(state.range(0)), rng));
  }
}
BENCHMARK(BM_MonteCarloCoverage)->Arg(500)->Arg(5000);

void BM_FleetDiscovery(benchmark::State& state) {
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  for (auto _ : state) {
    state.PauseTiming();
    IslFleet fleet(eph, FleetConfig{});
    state.ResumeTiming();
    benchmark::DoNotOptimize(fleet.runDiscoveryRound(0.0));
  }
}
BENCHMARK(BM_FleetDiscovery);

}  // namespace

BENCHMARK_MAIN();
