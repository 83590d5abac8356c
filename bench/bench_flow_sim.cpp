// Flow-simulator benchmark: the timer-wheel scheduler vs the legacy
// EventQueue spec, FlowSimulator vs the legacy toy stack, and the headline
// constellation-scale run.
//
// Phases:
//  * scheduler — self-rescheduling open-timer workload (LCG-deterministic
//    delays spanning 1 us .. 0.1 s, so records land on every wheel level):
//    the legacy EventQueue pays a std::function allocation and a heap
//    percolation per event; the TimerWheel schedules POD records in O(1).
//    Identical fire-order checksums are a hard gate — the wheel must be a
//    drop-in ordering-exact replacement, not approximately right.
//  * equivalence — the same multi-flow Iridium workload (66-sat plus-grid,
//    six gateways, queueing contention) run through the legacy
//    FlowGenerator + ForwardingEngine stack and through FlowSimulator with
//    one shared seed. The FNV checksum over every delivery record — ids,
//    timestamps, latencies, drop reasons, completion order — must match
//    bit for bit (hard gate). The wall-time ratio is the end-to-end
//    simulator speedup.
//  * cityflows — buildCityFlows at one thread vs the pool: spec checksums
//    must match bit for bit (hard gate; this is the path the TSan lane
//    watches at reduced scale).
//  * scale — the headline: city-weighted users over the Iridium snapshot,
//    ~100k concurrent flows at scale 1.0, reporting wall time, events/s,
//    latency percentiles, loss and peak link utilization.
//
// Hard gates exit non-zero so CI fails loudly rather than recording
// garbage. Besides the human-readable table the bench writes a
// machine-readable JSON record to BENCH_flow_sim.json (or argv[1]);
// argv[2] is an optional workload scale (e.g. 0.02 for the TSan lane).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/net/flows.hpp>
#include <openspace/net/scheduler.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/routing/engine.hpp>
#include <openspace/sim/flow_sim.hpp>
#include <openspace/spec/event.hpp>
#include <openspace/spec/flow_generator.hpp>
#include <openspace/spec/forwarding.hpp>
#include <openspace/topology/builder.hpp>

#include "bench_timing.hpp"

namespace {

using namespace openspace;
using namespace openspace::bench;

constexpr int kPasses = 3;  // best-of to shrug off scheduler noise

int scaled(double base, double scale) {
  return std::max(1, static_cast<int>(base * scale));
}

// --- phase A: scheduler ----------------------------------------------------

/// Deterministic per-timer delay stream (identical on both sides): a 64-bit
/// LCG whose high bits pick a delay in [1 us, 0.1 s].
double nextDelayS(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return 1e-6 * static_cast<double>(1 + ((state >> 33) % 100'000));
}

std::vector<std::uint64_t> lcgSeeds(int timers) {
  std::vector<std::uint64_t> s(static_cast<std::size_t>(timers));
  for (int i = 0; i < timers; ++i) {
    s[static_cast<std::size_t>(i)] =
        0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(i) + 1);
  }
  return s;
}

std::uint64_t legacySchedulerPass(int timers, std::size_t targetEvents) {
  EventQueue q;
  std::vector<std::uint64_t> lcg = lcgSeeds(timers);
  std::uint64_t h = kFnvOffsetBasis;
  std::size_t fired = 0;
  std::function<void(int)> fire = [&](int timer) {
    const auto t = static_cast<std::size_t>(timer);
    h = fnv1a(h, static_cast<std::uint64_t>(timer));
    h = fnv1a(h, bitsOf(q.now()));
    if (++fired < targetEvents) {
      q.schedule(q.now() + nextDelayS(lcg[t]), [&fire, timer] { fire(timer); });
    }
  };
  for (int i = 0; i < timers; ++i) {
    const auto t = static_cast<std::size_t>(i);
    q.schedule(nextDelayS(lcg[t]), [&fire, i] { fire(i); });
  }
  q.runAll();
  return h;
}

std::uint64_t wheelSchedulerPass(int timers, std::size_t targetEvents) {
  struct Pod {
    std::uint32_t timer;
  };
  TimerWheel<Pod> w(1e-6);
  std::vector<std::uint64_t> lcg = lcgSeeds(timers);
  std::uint64_t h = kFnvOffsetBasis;
  std::size_t fired = 0;
  for (int i = 0; i < timers; ++i) {
    const auto t = static_cast<std::size_t>(i);
    w.schedule(nextDelayS(lcg[t]), Pod{static_cast<std::uint32_t>(i)});
  }
  w.runAll([&](double tS, const Pod& p) {
    h = fnv1a(h, p.timer);
    h = fnv1a(h, bitsOf(tS));
    if (++fired < targetEvents) {
      w.schedule(tS + nextDelayS(lcg[p.timer]), p);
    }
  });
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_flow_sim.json";
  const double scale =
      argc > 2 ? std::clamp(std::atof(argv[2]), 1e-3, 10.0) : 1.0;
  const double wallStartS = nowS();
  const int poolThreads = parallelThreadCount();

  // --- phase A: scheduler microbench --------------------------------------
  const int schedTimers = scaled(10'000, scale);
  const auto schedEvents =
      static_cast<std::size_t>(scaled(2'000'000, scale));
  const Timed schedLegacy =
      timeIt([&] { return legacySchedulerPass(schedTimers, schedEvents); },
             kPasses);
  const Timed schedWheel =
      timeIt([&] { return wheelSchedulerPass(schedTimers, schedEvents); },
             kPasses);
  const bool schedMatch = schedLegacy.checksum == schedWheel.checksum;
  // Both sides fire target + open-timer-tail events; count the actual total
  // for the events/s figure.
  const auto schedTotal =
      schedEvents + static_cast<std::size_t>(schedTimers);
  const double legacyEps =
      schedLegacy.bestPassS > 0.0
          ? static_cast<double>(schedTotal) / schedLegacy.bestPassS
          : 0.0;
  const double wheelEps =
      schedWheel.bestPassS > 0.0
          ? static_cast<double>(schedTotal) / schedWheel.bestPassS
          : 0.0;
  const double speedupScheduler =
      schedWheel.bestPassS > 0.0
          ? schedLegacy.bestPassS / schedWheel.bestPassS
          : 0.0;

  // --- shared constellation setup -----------------------------------------
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) {
    eph.publish(ProviderId{1}, el);
  }
  TopologyBuilder topo(eph);
  const struct {
    const char* name;
    double latDeg, lonDeg;
  } kGateways[] = {
      {"paris", 48.86, 2.35},    {"denver", 39.74, -104.99},
      {"jburg", -26.20, 28.05},  {"sydney", -33.87, 151.21},
      {"saopaulo", -23.55, -46.63}, {"tokyo", 35.68, 139.69},
  };
  std::vector<NodeId> gateways;
  for (const auto& gw : kGateways) {
    gateways.push_back(topo.nodeOf(topo.addGroundStation(
        {gw.name, Geodetic::fromDegrees(gw.latDeg, gw.lonDeg), ProviderId{1}})));
  }
  SnapshotOptions opt;
  opt.wiring = IslWiring::PlusGrid;
  opt.planes = 6;
  opt.minElevationRad = deg2rad(10.0);
  const NetworkGraph g = topo.snapshot(0.0, opt);
  const RouteEngine engine(g, latencyCost());
  const auto snapshot = std::make_shared<const ConstellationSnapshot>(eph, 0.0);
  std::vector<NodeId> satNodes;
  for (const SatelliteId sid : eph.satellites()) {
    satNodes.push_back(topo.nodeOf(sid));
  }

  // --- phase B: simulator == legacy stack, bit for bit ---------------------
  const int equivFlows = scaled(2'000, scale);
  const double equivStopS = 0.5;
  std::vector<FlowSpec> flows;
  std::vector<std::uint32_t> flowRoute;  // index into routeForPair
  std::vector<Route> pairRoutes;
  std::unordered_map<std::uint64_t, std::uint32_t> pairIndex;
  for (int i = 0; i < equivFlows; ++i) {
    const NodeId src = satNodes[static_cast<std::size_t>(i) % satNodes.size()];
    const NodeId dst = gateways[static_cast<std::size_t>(i) % gateways.size()];
    const std::uint64_t key = src.value() * 1'000'003ull + dst.value();
    auto it = pairIndex.find(key);
    if (it == pairIndex.end()) {
      Route r = engine.shortestPath(src, dst);
      if (!r.valid()) continue;  // unreachable pair: skip
      it = pairIndex.emplace(key, static_cast<std::uint32_t>(pairRoutes.size()))
               .first;
      pairRoutes.push_back(std::move(r));
    }
    FlowSpec f;
    f.src = src;
    f.dst = dst;
    f.rateBps = 8e3 * static_cast<double>(1 + i % 5);
    f.packetBits = 12'000.0;
    f.stopS = equivStopS;
    flows.push_back(f);
    flowRoute.push_back(it->second);
  }

  const Timed equivLegacy = timeIt([&] {
    EventQueue ev;
    Rng rng(7);
    ForwardingEngine fwd(g, ev);
    std::uint64_t h = kFnvOffsetBasis;
    fwd.onComplete(
        [&](const DeliveryRecord& r) { h = mixDeliveryRecord(h, r); });
    FlowGenerator gen(ev, rng, [&](const Packet& p) {
      const std::uint64_t key = p.src.value() * 1'000'003ull + p.dst.value();
      fwd.send(p, pairRoutes[pairIndex.at(key)]);
    });
    for (const FlowSpec& f : flows) gen.addFlow(f);
    ev.runAll();
    return h;
  }, kPasses);

  std::uint64_t equivRecords = 0;
  const Timed equivSim = timeIt([&] {
    FlowSimulator sim(engine.sharedGraph(), FlowSimConfig{}.withSeed(7));
    std::vector<std::uint32_t> pathOf(pairRoutes.size(),
                                      FlowSimulator::kNoPath);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const std::uint32_t pr = flowRoute[i];
      if (pathOf[pr] == FlowSimulator::kNoPath) {
        pathOf[pr] = sim.addPath(pairRoutes[pr]);
      }
      sim.addFlow(flows[i], pathOf[pr]);
    }
    const FlowSimReport rep = sim.run();
    equivRecords = rep.packetsOffered;
    return rep.recordChecksum;
  }, kPasses);
  const bool equivMatch = equivLegacy.checksum == equivSim.checksum;
  const double speedupSim = equivSim.bestPassS > 0.0
                                ? equivLegacy.bestPassS / equivSim.bestPassS
                                : 0.0;

  // --- phase C: buildCityFlows serial == parallel ---------------------------
  CityFlowConfig cityCfg;
  cityCfg.users = scaled(20'000, scale);
  cityCfg.meanRateBps = 20e3;
  cityCfg.durationS = 0.5;
  cityCfg.minElevationRad = deg2rad(10.0);
  cityCfg.utcSeconds = 12.0 * 3600.0;
  cityCfg.seed = 31;
  setParallelThreadCount(1);
  const CityFlows citySerial =
      buildCityFlows(cityCfg, snapshot, satNodes, gateways, engine);
  setParallelThreadCount(std::max(poolThreads, 4));
  const int parThreads = parallelThreadCount();
  const CityFlows cityParallel =
      buildCityFlows(cityCfg, snapshot, satNodes, gateways, engine);
  setParallelThreadCount(poolThreads);
  const bool cityMatch = citySerial.checksum == cityParallel.checksum;

  // --- phase D: the constellation-scale run ---------------------------------
  CityFlowConfig scaleCfg;
  scaleCfg.users = scaled(110'000, scale);
  scaleCfg.meanRateBps = 20e3;
  scaleCfg.durationS = 2.0;
  scaleCfg.minElevationRad = deg2rad(10.0);
  scaleCfg.utcSeconds = 12.0 * 3600.0;
  scaleCfg.seed = 2024;
  const CityFlows cityScale =
      buildCityFlows(scaleCfg, snapshot, satNodes, gateways, engine);

  FlowSimulator sim(engine.sharedGraph(), FlowSimConfig{}
                                              .withSeed(2024)
                                              .withDuration(scaleCfg.durationS));
  std::vector<std::uint32_t> pathOf(cityScale.routes.size(),
                                    FlowSimulator::kNoPath);
  for (std::size_t i = 0; i < cityScale.specs.size(); ++i) {
    const std::uint32_t sat = cityScale.routeOf[i];
    if (pathOf[sat] == FlowSimulator::kNoPath) {
      pathOf[sat] = sim.addPath(cityScale.routes[sat]);
    }
    sim.addFlow(cityScale.specs[i], pathOf[sat]);
  }
  const double scaleT0 = nowS();
  const FlowSimReport rep = sim.run();
  const double scaleRunS = nowS() - scaleT0;
  const double scaleEps =
      scaleRunS > 0.0 ? static_cast<double>(rep.eventsExecuted) / scaleRunS
                      : 0.0;
  const double lossRate =
      rep.packetsOffered > 0
          ? static_cast<double>(rep.packetsDropped) /
                static_cast<double>(rep.packetsOffered)
          : 0.0;
  double maxUtil = 0.0;
  for (const double u : rep.edgeUtilization) maxUtil = std::max(maxUtil, u);
  const bool haveLatency = rep.packetsDelivered > 0;
  const double p50Ms = haveLatency ? rep.latency.percentileS(0.5) * 1e3 : 0.0;
  const double p95Ms = haveLatency ? rep.latency.p95S() * 1e3 : 0.0;
  const double p99Ms = haveLatency ? rep.latency.percentileS(0.99) * 1e3 : 0.0;

  const bool allMatch = schedMatch && equivMatch && cityMatch;

  // --- report ---------------------------------------------------------------
  std::printf("# Flow simulator: timer wheel vs EventQueue, FlowSimulator vs "
              "legacy stack (scale=%.3f, best of %d passes)\n\n",
              scale, kPasses);
  std::printf("%-12s %-14s %-12s %-12s %-10s\n", "phase", "work", "legacy_s",
              "new_s", "speedup");
  std::printf("%-12s %-14zu %-12.3f %-12.3f %-10.2f\n", "scheduler",
              schedTotal, schedLegacy.bestPassS, schedWheel.bestPassS,
              speedupScheduler);
  std::printf("%-12s %-14llu %-12.3f %-12.3f %-10.2f\n", "simulator",
              static_cast<unsigned long long>(equivRecords),
              equivLegacy.bestPassS, equivSim.bestPassS, speedupSim);
  std::printf("\n# scheduler: %d open timers, %.2fM events/s legacy, "
              "%.2fM events/s wheel\n",
              schedTimers, legacyEps / 1e6, wheelEps / 1e6);
  std::printf("# scale run: %zu flows (%zu users, %zu unserved), %llu "
              "packets, %llu events in %.3f s (%.2fM events/s)\n",
              cityScale.specs.size(),
              static_cast<std::size_t>(scaleCfg.users),
              cityScale.unservedUsers,
              static_cast<unsigned long long>(rep.packetsOffered),
              static_cast<unsigned long long>(rep.eventsExecuted), scaleRunS,
              scaleEps / 1e6);
  std::printf("# scale run: latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms, "
              "loss %.4f, peak edge utilization %.3f\n",
              p50Ms, p95Ms, p99Ms, lossRate, maxUtil);
  std::printf("# gates: scheduler %s  simulator==legacy %s  "
              "cityflows serial==parallel %s\n",
              schedMatch ? "MATCH" : "MISMATCH",
              equivMatch ? "MATCH" : "MISMATCH",
              cityMatch ? "MATCH" : "MISMATCH");

  const double wallS = nowS() - wallStartS;
  if (std::FILE* f = std::fopen(jsonPath, "w")) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"flow_sim\",\n"
        "  \"wall_seconds\": %.6f,\n"
        "  \"threads\": %d,\n"
        "  \"scale\": %.4f,\n"
        "  \"sched_timers\": %d,\n"
        "  \"sched_events\": %zu,\n"
        "  \"sched_legacy_s\": %.6f,\n"
        "  \"sched_wheel_s\": %.6f,\n"
        "  \"sched_legacy_eps\": %.0f,\n"
        "  \"sched_wheel_eps\": %.0f,\n"
        "  \"speedup_scheduler\": %.3f,\n"
        "  \"equiv_flows\": %zu,\n"
        "  \"equiv_records\": %llu,\n"
        "  \"equiv_legacy_s\": %.6f,\n"
        "  \"equiv_sim_s\": %.6f,\n"
        "  \"speedup_sim\": %.3f,\n"
        "  \"cityflows_users\": %d,\n"
        "  \"cityflows_checksum\": \"%016llx\",\n"
        "  \"scale_users\": %d,\n"
        "  \"scale_flows\": %zu,\n"
        "  \"scale_packets\": %llu,\n"
        "  \"scale_dropped\": %llu,\n"
        "  \"scale_loss_rate\": %.6f,\n"
        "  \"scale_events\": %llu,\n"
        "  \"scale_run_s\": %.6f,\n"
        "  \"scale_events_per_s\": %.0f,\n"
        "  \"scale_p50_ms\": %.4f,\n"
        "  \"scale_p95_ms\": %.4f,\n"
        "  \"scale_p99_ms\": %.4f,\n"
        "  \"scale_max_utilization\": %.4f,\n"
        "  \"scale_record_checksum\": \"%016llx\",\n"
        "  \"checksums_match\": %s\n}\n",
        wallS, parThreads, scale, schedTimers, schedTotal,
        schedLegacy.bestPassS, schedWheel.bestPassS, legacyEps, wheelEps,
        speedupScheduler, flows.size(),
        static_cast<unsigned long long>(equivRecords), equivLegacy.bestPassS,
        equivSim.bestPassS, speedupSim, cityCfg.users,
        static_cast<unsigned long long>(citySerial.checksum), scaleCfg.users,
        cityScale.specs.size(),
        static_cast<unsigned long long>(rep.packetsOffered),
        static_cast<unsigned long long>(rep.packetsDropped), lossRate,
        static_cast<unsigned long long>(rep.eventsExecuted), scaleRunS,
        scaleEps, p50Ms, p95Ms, p99Ms, maxUtil,
        static_cast<unsigned long long>(rep.recordChecksum),
        allMatch ? "true" : "false");
    std::fclose(f);
    std::printf("# json: %s\n", jsonPath);
  }
  return allMatch ? 0 : 1;
}
