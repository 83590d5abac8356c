// Incremental temporal topology benchmark: IncrementalTopology's per-step
// CompactGraphs and the routing trees built on them vs the full per-step
// recompile of the executable spec.
//
// Scenario (scale 1.0): the paper's 66-sat Iridium plus-grid, six
// gateways plus twelve user terminals, a 1-hour sweep at 1 s steps.
//
// Structure — verification and timing are separate sweeps:
//  * verify (untimed) — fresh and delta run side by side over every step.
//    Graphs: contentChecksum() equality per step under the delay cost
//    (latencyCost()). Routes: the full dist + parent-edge arrays of every tree built
//    on the delta graph against its twin on the fresh compile, per step
//    under a hop-count cost. Any single-bit divergence on any step fails
//    the run (hard gate, exit non-zero). Checksumming lives here, outside
//    the timed passes, because hashing every edge payload costs more than
//    the delta step being measured and would dilute both sides of the
//    ratio.
//  * graphs (timed) — per-step compiled-graph production. Fresh side runs
//    the executable spec every step: legacy::topologySnapshot()
//    (hash-map NetworkGraph, name strings, all-pairs scans) +
//    legacy::compileGraph(). Delta side walks one IncrementalTopology: flat link
//    enumeration, structural diff, counting-sort CSR assembly. Timed loops
//    fold a cheap per-step summary (edge count + sampled cost bits) —
//    identical across modes (secondary gate) and stable across passes.
//  * routes (timed) — per-step topology + routing trees, one tree per
//    source. Fresh recompiles the spec snapshot; delta steps the
//    IncrementalTopology. Both then run a fresh Dijkstra per source, so
//    the ratio is the graph path's saving diluted by the tree cost. Each
//    phase runs its fresh and delta passes interleaved (kPasses each) and
//    reports the ratio of the per-mode minima. Wall
//    times are compared against the committed baseline by
//    tools/bench_compare.py, not here (in-bench timing asserts flake on
//    loaded machines, checksum gates cannot).
//  * batch (untimed) — batchShortestPathTrees over all satellites, one
//    thread vs the pool: per-tree checksums must match bit for bit (hard
//    gate; the TSan lane runs this at reduced scale).
//
// Besides the human-readable table the bench writes a machine-readable
// JSON record to BENCH_temporal_delta.json (or argv[1]); argv[2] is an
// optional workload scale (e.g. 0.02 for the TSan lane).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/spec/topology_legacy.hpp>
#include <openspace/topology/builder.hpp>
#include <openspace/topology/compact_graph.hpp>
#include <openspace/topology/delta.hpp>

#include "bench_timing.hpp"

namespace {

using namespace openspace;
using namespace openspace::bench;

// Passes per mode. The two modes of a phase run interleaved, one pass of
// each in alternating order, and each keeps its fastest pass: a burst of
// host load then slows both modes' passes alike instead of the whole of
// one mode, so the speedup (the ratio of the per-mode minima) stays steady
// on a shared machine.
constexpr int kPasses = 7;

/// One per link: only structural link churn perturbs the routes.
LinkCostFn hopCost() {
  return [](const Link&, const Node&, const Node&, ProviderId) { return 1.0; };
}

/// Full-tree fold: every dist bit and parent edge (verification sweep).
std::uint64_t mixTree(std::uint64_t h, const PathTree& tree) {
  for (const double d : tree.distByIndex()) h = fnv1a(h, bitsOf(d));
  for (const std::uint32_t p : tree.parentEdgeByIndex()) h = fnv1a(h, p);
  return h;
}

/// O(1) per-step graph summary for the timed loops: identical for
/// content-identical graphs, cheap enough not to perturb the measurement.
std::uint64_t mixGraphSummary(std::uint64_t h, const CompactGraph& g) {
  const std::size_t e = g.edgeCount();
  h = fnv1a(h, e);
  if (e > 0) {
    h = fnv1a(h, bitsOf(g.edgeCost(0)));
    h = fnv1a(h, bitsOf(g.edgeCapacityBps(e - 1)));
  }
  return h;
}

/// O(1) per-tree summary for the timed loops.
std::uint64_t mixTreeSummary(std::uint64_t h, const PathTree& tree) {
  h = fnv1a(h, bitsOf(tree.distByIndex().back()));
  h = fnv1a(h, tree.parentEdgeByIndex().back());
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_temporal_delta.json";
  const double scale =
      argc > 2 ? std::clamp(std::atof(argv[2]), 1e-3, 10.0) : 1.0;
  const double wallStartS = nowS();
  const int poolThreads = parallelThreadCount();

  // --- shared constellation: the paper's 66-sat Iridium reference ----------
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) {
    eph.publish(ProviderId{1}, el);
  }
  TopologyBuilder topo(eph);
  const struct {
    const char* name;
    double latDeg, lonDeg;
  } kGateways[] = {
      {"paris", 48.86, 2.35},       {"denver", 39.74, -104.99},
      {"jburg", -26.20, 28.05},     {"sydney", -33.87, 151.21},
      {"saopaulo", -23.55, -46.63}, {"tokyo", 35.68, 139.69},
  };
  for (const auto& gw : kGateways) {
    topo.addGroundStation(
        {gw.name, Geodetic::fromDegrees(gw.latDeg, gw.lonDeg), ProviderId{1}});
  }
  // A dozen user terminals spread across latitudes: democratized access is
  // the workload, and user links are most of the fresh path's per-step
  // visibility scanning.
  for (int u = 0; u < 12; ++u) {
    topo.addUser({"user-" + std::to_string(u),
                  Geodetic::fromDegrees(-60.0 + 11.0 * u, 30.0 * u - 180.0),
                  ProviderId{2}});
  }
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  opt.includeUserLinks = true;

  const int steps = std::max(2, static_cast<int>(3'600 * scale));
  const double stepS = 1.0;
  const std::size_t satCount = eph.satellites().size();

  // One tree per source, sources spread across the constellation.
  std::vector<NodeId> sources;
  {
    const std::vector<SatelliteId> sats = eph.satellites();
    for (std::size_t s = 0; s < sats.size(); s += 8) {
      sources.push_back(topo.nodeOf(sats[s]));
    }
  }

  // --- verification sweep (untimed): delta==fresh, every step, every bit --
  bool graphMatch = true;
  bool routesMatch = true;
  std::uint64_t graphChecksum = kFnvOffsetBasis;
  std::uint64_t routesChecksum = kFnvOffsetBasis;
  std::size_t structuralSteps = 0;
  {
    const LinkCostFn delayCost = latencyCost();
    const LinkCostFn hops = hopCost();
    IncrementalTopology incG(topo, opt, delayCost);
    IncrementalTopology incR(topo, opt, hops);
    for (int i = 0; i < steps; ++i) {
      const double t = i * stepS;
      // Graphs under the delay cost.
      const CompactGraph freshG =
          legacy::compileGraph(legacy::topologySnapshot(topo, t, opt), delayCost);
      if (incG.step(t).structural) ++structuralSteps;
      const std::uint64_t freshSum = freshG.contentChecksum();
      graphMatch = graphMatch && freshSum == incG.graph()->contentChecksum();
      graphChecksum = fnv1a(graphChecksum, freshSum);
      // Trees under the hop cost: every tree on the delta graph against
      // its twin on the fresh compile.
      incR.step(t);
      const RouteEngine freshEngine(std::make_shared<const CompactGraph>(
          legacy::compileGraph(legacy::topologySnapshot(topo, t, opt), hops)));
      const RouteEngine deltaEngine(incR.graph());
      for (const NodeId src : sources) {
        const std::uint64_t treeSum =
            mixTree(kFnvOffsetBasis, freshEngine.shortestPathTree(src));
        routesMatch = routesMatch &&
                      treeSum == mixTree(kFnvOffsetBasis,
                                         deltaEngine.shortestPathTree(src));
        routesChecksum = fnv1a(routesChecksum, treeSum);
      }
    }
  }

  // --- phase A (timed): per-step graph production (delay cost) -------------
  const auto freshGraphs = [&] {
    const LinkCostFn cost = latencyCost();
    std::uint64_t h = kFnvOffsetBasis;
    for (int i = 0; i < steps; ++i) {
      const CompactGraph g =
          legacy::compileGraph(legacy::topologySnapshot(topo, i * stepS, opt), cost);
      h = mixGraphSummary(h, g);
    }
    return h;
  };
  const auto deltaGraphs = [&] {
    IncrementalTopology inc(topo, opt, latencyCost());
    std::uint64_t h = kFnvOffsetBasis;
    for (int i = 0; i < steps; ++i) {
      inc.step(i * stepS);
      h = mixGraphSummary(h, *inc.graph());
    }
    return h;
  };
  const auto [graphFresh, graphDelta] =
      timeInterleaved(freshGraphs, deltaGraphs, kPasses);
  const bool graphSummaryMatch = graphFresh.checksum == graphDelta.checksum;
  const double speedupGraph = graphDelta.bestPassS > 0.0
                                  ? graphFresh.bestPassS / graphDelta.bestPassS
                                  : 0.0;

  // --- phase B (timed): per-step topology + routing trees (hop cost) -------
  const auto freshRoutes = [&] {
    const LinkCostFn cost = hopCost();
    std::uint64_t h = kFnvOffsetBasis;
    for (int i = 0; i < steps; ++i) {
      const RouteEngine engine(std::make_shared<const CompactGraph>(
          legacy::compileGraph(legacy::topologySnapshot(topo, i * stepS, opt), cost)));
      for (const NodeId src : sources) {
        h = mixTreeSummary(h, engine.shortestPathTree(src));
      }
    }
    return h;
  };
  const auto deltaRoutes = [&] {
    IncrementalTopology inc(topo, opt, hopCost());
    std::uint64_t h = kFnvOffsetBasis;
    for (int i = 0; i < steps; ++i) {
      inc.step(i * stepS);
      const RouteEngine engine(inc.graph());
      for (const NodeId src : sources) {
        h = mixTreeSummary(h, engine.shortestPathTree(src));
      }
    }
    return h;
  };
  const auto [routesFresh, routesDelta] =
      timeInterleaved(freshRoutes, deltaRoutes, kPasses);
  const bool routesSummaryMatch = routesFresh.checksum == routesDelta.checksum;
  const double speedupRoutes =
      routesDelta.bestPassS > 0.0 ? routesFresh.bestPassS / routesDelta.bestPassS
                                  : 0.0;

  // --- phase C: batch trees, serial == parallel ----------------------------
  std::vector<NodeId> allSats;
  for (const SatelliteId sid : eph.satellites()) {
    allSats.push_back(topo.nodeOf(sid));
  }
  const auto batchGraph = std::make_shared<const CompactGraph>(
      legacy::compileGraph(topo.snapshot(0.0, opt), latencyCost()));
  const RouteEngine batchEngine(batchGraph);
  const auto batchChecksum = [&] {
    std::uint64_t h = kFnvOffsetBasis;
    for (const PathTree& t : batchEngine.batchShortestPathTrees(allSats)) {
      h = mixTree(h, t);
    }
    return h;
  };
  setParallelThreadCount(1);
  const std::uint64_t batchSerial = batchChecksum();
  setParallelThreadCount(std::max(poolThreads, 4));
  const int parThreads = parallelThreadCount();
  const std::uint64_t batchParallel = batchChecksum();
  setParallelThreadCount(poolThreads);
  const bool batchMatch = batchSerial == batchParallel;

  const bool allMatch = graphMatch && routesMatch && graphSummaryMatch &&
                        routesSummaryMatch && batchMatch;

  // --- report --------------------------------------------------------------
  const double perStepFreshMs = 1e3 * routesFresh.bestPassS / steps;
  const double perStepDeltaMs = 1e3 * routesDelta.bestPassS / steps;
  std::printf("# Incremental temporal topology: per-step CSR assembly + "
              "fresh trees vs full recompile (%zu sats, %d steps of %.0f s, "
              "scale=%.3f, best of %d interleaved passes per mode)\n\n",
              satCount, steps, stepS, scale, kPasses);
  std::printf("%-10s %-10s %-12s %-12s %-10s\n", "phase", "work", "fresh_s",
              "delta_s", "speedup");
  std::printf("%-10s %-10d %-12.3f %-12.3f %-10.2f\n", "graphs", steps,
              graphFresh.bestPassS, graphDelta.bestPassS, speedupGraph);
  std::printf("%-10s %-10d %-12.3f %-12.3f %-10.2f\n", "routes", steps,
              routesFresh.bestPassS, routesDelta.bestPassS, speedupRoutes);
  std::printf("\n# graphs: %zu structural steps (%.1f%%) changed the link "
              "set; every step assembles its CSR arrays from the link list\n",
              structuralSteps,
              100.0 * static_cast<double>(structuralSteps) / steps);
  std::printf("# routes: %zu sources; per step %.3f ms fresh -> %.3f ms "
              "delta\n",
              sources.size(), perStepFreshMs, perStepDeltaMs);
  std::printf("# gates: graphs delta==fresh %s  routes delta==fresh %s  "
              "batch serial==parallel %s  timed summaries %s\n",
              graphMatch ? "MATCH" : "MISMATCH",
              routesMatch ? "MATCH" : "MISMATCH",
              batchMatch ? "MATCH" : "MISMATCH",
              graphSummaryMatch && routesSummaryMatch ? "MATCH" : "MISMATCH");

  const double wallS = nowS() - wallStartS;
  if (std::FILE* f = std::fopen(jsonPath, "w")) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"temporal_delta\",\n"
        "  \"wall_seconds\": %.6f,\n"
        "  \"threads\": %d,\n"
        "  \"scale\": %.4f,\n"
        "  \"sats\": %zu,\n"
        "  \"steps\": %d,\n"
        "  \"step_s\": %.3f,\n"
        "  \"graph_fresh_s\": %.6f,\n"
        "  \"graph_delta_s\": %.6f,\n"
        "  \"speedup_graph\": %.3f,\n"
        "  \"structural_steps\": %zu,\n"
        "  \"route_sources\": %zu,\n"
        "  \"routes_fresh_s\": %.6f,\n"
        "  \"routes_delta_s\": %.6f,\n"
        "  \"speedup_routes\": %.3f,\n"
        "  \"per_step_fresh_ms\": %.4f,\n"
        "  \"per_step_delta_ms\": %.4f,\n"
        "  \"graph_checksum\": \"%016llx\",\n"
        "  \"routes_checksum\": \"%016llx\",\n"
        "  \"batch_checksum\": \"%016llx\",\n"
        "  \"checksums_match\": %s\n}\n",
        wallS, parThreads, scale, satCount, steps, stepS,
        graphFresh.bestPassS, graphDelta.bestPassS, speedupGraph,
        structuralSteps, sources.size(), routesFresh.bestPassS,
        routesDelta.bestPassS, speedupRoutes, perStepFreshMs, perStepDeltaMs,
        static_cast<unsigned long long>(graphChecksum),
        static_cast<unsigned long long>(routesChecksum),
        static_cast<unsigned long long>(batchSerial),
        allMatch ? "true" : "false");
    std::fclose(f);
    std::printf("# json: %s\n", jsonPath);
  }
  return allMatch ? 0 : 1;
}
