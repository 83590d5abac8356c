// Ablation R: proactive vs. congestion-aware on-demand routing (§2.2, §5(2)).
//
// Scenario: an Iridium-like constellation, a user in Nairobi, and two
// gateways — a *near* one (Mombasa) experiencing heavy load (deep queues +
// surge tariff on visitor traffic) and a *far* idle one (Johannesburg).
// Proactive routing, computed from ephemeris alone, cannot see the queueing
// and keeps sending traffic to the hot gateway; on-demand routing reads
// live congestion and detours. The table sweeps the hot gateway's queueing
// delay and reports each policy's end-to-end latency and path choice.
//
// Besides the human-readable table, the bench writes a machine-readable
// JSON record to BENCH_routing_ablation.json (or argv[1]): the sweep rows,
// plus a serial-vs-parallel RouteEngine batch section whose FNV route
// checksums must match (the engine's determinism contract, checked here on
// every CI perf run, not just in the unit tests).
#include <chrono>
#include <cstdio>
#include <cstring>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/topology/builder.hpp>

namespace {

using namespace openspace;

double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v;
  h *= 0x100000001B3ull;
  return h;
}

std::uint64_t bitsOf(double v) noexcept {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Order- and bit-sensitive checksum of a batch of path trees: any change
/// in a distance, a parent edge, or the tree order changes the value.
std::uint64_t treeChecksum(const std::vector<PathTree>& trees) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const PathTree& t : trees) {
    h = fnv1a(h, t.source().value());
    for (const double d : t.distByIndex()) h = fnv1a(h, bitsOf(d));
    for (const std::uint32_t p : t.parentEdgeByIndex()) h = fnv1a(h, p);
  }
  return h;
}

struct SweepRow {
  double hotQueueMs = 0.0;
  bool reachable = false;
  double proactiveMs = 0.0;
  double onDemandMs = 0.0;
  bool detoured = false;
};

}  // namespace

int main(int argc, char** argv) {
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) eph.publish(ProviderId{1}, el);
  TopologyBuilder topo(eph);
  const NodeId user = topo.addUser(
      {"nairobi-user", Geodetic::fromDegrees(-1.2921, 36.8219), ProviderId{10}});
  const NodeId nearGs = topo.nodeOf(topo.addGroundStation(
      {"mombasa-gw", Geodetic::fromDegrees(-4.0435, 39.6682), ProviderId{20}}));
  const NodeId farGs = topo.nodeOf(topo.addGroundStation(
      {"johannesburg-gw", Geodetic::fromDegrees(-26.2041, 28.0473), ProviderId{30}}));

  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  // Ties go to the near gateway (routeToCheapest prefers the earlier one).
  const std::vector<NodeId> gateways = {nearGs, farGs};

  const double wallStartS = nowS();

  std::printf("# Routing ablation: hot near gateway vs idle far gateway\n");
  std::printf("# user=Nairobi  near=Mombasa (congested)  far=Johannesburg (idle)\n\n");
  std::printf("%-14s %-22s %-22s %-12s\n", "hot_queue_ms",
              "proactive_latency_ms", "ondemand_latency_ms", "detoured");

  std::vector<SweepRow> rows;
  for (const double hotQueueMs : {0.0, 5.0, 20.0, 50.0, 100.0, 250.0}) {
    NetworkGraph g = topo.snapshot(0.0, opt);
    // Load the near gateway: every GSL touching it queues.
    for (const LinkId lid : g.links()) {
      Link& l = g.link(lid);
      if (l.type == LinkType::Gsl && (l.a == nearGs || l.b == nearGs)) {
        l.queueingDelayS = milliseconds(hotQueueMs);
        l.tariffUsdPerGb = 0.50;  // surge pricing on visitor traffic (§2.2)
      }
    }

    // Proactive: the precomputed choice ignores live queue state — model it
    // by routing on propagation delay only, then charging the path the
    // queueing it actually encounters.
    const LinkCostFn propOnly = [](const Link& l, const Node&, const Node&,
                                   ProviderId) { return l.propagationDelayS; };
    const Route proactive =
        RouteEngine(g, propOnly).shortestPathTree(user).routeToCheapest(gateways);

    // On-demand: full congestion-aware gateway selection.
    const Route onDemand =
        RouteEngine(g, latencyCost()).shortestPathTree(user).routeToCheapest(
            gateways);

    SweepRow row;
    row.hotQueueMs = hotQueueMs;
    if (!proactive.valid() || !onDemand.valid()) {
      std::printf("%-14.0f %-22s %-22s %-12s\n", hotQueueMs, "unreachable",
                  "unreachable", "-");
      rows.push_back(row);
      continue;
    }
    row.reachable = true;
    row.proactiveMs = toMilliseconds(proactive.totalDelayS());
    row.onDemandMs = toMilliseconds(onDemand.totalDelayS());
    row.detoured = onDemand.nodes.back() != proactive.nodes.back();
    rows.push_back(row);
    std::printf("%-14.0f %-22.2f %-22.2f %-12s\n", hotQueueMs, row.proactiveMs,
                row.onDemandMs, row.detoured ? "yes" : "no");
  }

  std::printf("\n# Expected shape: identical at 0 queueing; once the hot\n"
              "# gateway's queues exceed the ~detour cost, on-demand switches\n"
              "# to the far gateway and its latency flattens while proactive\n"
              "# keeps absorbing the queue (the section 5(2) trade-off).\n");

  // Batch determinism + throughput: all-satellite-source trees, serial vs
  // thread pool. Checksums are over raw distance bits and parent edges, so
  // "equal" here means bit-identical trees, not merely equal costs.
  const NetworkGraph g = topo.snapshot(0.0, opt);
  const RouteEngine engine(g, latencyCost());
  const std::vector<NodeId> sources = g.nodesOfKind(NodeKind::Satellite);

  const int poolThreads = parallelThreadCount();
  setParallelThreadCount(1);
  const double serialStartS = nowS();
  const auto serialTrees = engine.batchShortestPathTrees(sources);
  const double serialS = nowS() - serialStartS;
  setParallelThreadCount(poolThreads);
  const double parallelStartS = nowS();
  const auto parallelTrees = engine.batchShortestPathTrees(sources);
  const double parallelS = nowS() - parallelStartS;

  const std::uint64_t serialSum = treeChecksum(serialTrees);
  const std::uint64_t parallelSum = treeChecksum(parallelTrees);
  const bool checksumsMatch = serialSum == parallelSum;
  std::printf("\n# batch trees: %zu sources  serial %.4f s  parallel %.4f s "
              "(threads=%d)  checksums %s\n",
              sources.size(), serialS, parallelS, poolThreads,
              checksumsMatch ? "MATCH" : "MISMATCH");

  const double wallS = nowS() - wallStartS;
  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_routing_ablation.json";
  if (std::FILE* f = std::fopen(jsonPath, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"routing_ablation\",\n"
                 "  \"wall_seconds\": %.6f,\n  \"threads\": %d,\n"
                 "  \"rows\": [\n",
                 wallS, poolThreads);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      std::fprintf(f,
                   "    {\"hot_queue_ms\": %.1f, \"reachable\": %s, "
                   "\"proactive_latency_ms\": %.6f, "
                   "\"ondemand_latency_ms\": %.6f, \"detoured\": %s}%s\n",
                   r.hotQueueMs, r.reachable ? "true" : "false", r.proactiveMs,
                   r.onDemandMs, r.detoured ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"batch\": {\n"
                 "    \"sources\": %zu,\n"
                 "    \"serial_seconds\": %.6f,\n"
                 "    \"parallel_seconds\": %.6f,\n"
                 "    \"serial_checksum\": \"%016llx\",\n"
                 "    \"parallel_checksum\": \"%016llx\",\n"
                 "    \"checksums_match\": %s\n  }\n}\n",
                 sources.size(), serialS, parallelS,
                 static_cast<unsigned long long>(serialSum),
                 static_cast<unsigned long long>(parallelSum),
                 checksumsMatch ? "true" : "false");
    std::fclose(f);
    std::printf("# json: %s\n", jsonPath);
  }
  return checksumsMatch ? 0 : 1;
}
