// Million-user session plane: the batched HandoverSweep epoch kernel vs
// the stateless per-user planner scan (paper §2.2 at scale).
//
// Scenario (scale 1.0): the 66-sat Iridium-like Walker star serving
// 1,000,000 users drawn from the default world population model, swept
// through 24 epochs of 15 s — the paper's Starlink handover-cadence
// anchor sets the control-plane tick — over a six-minute steady-state
// window. The tick length is where the expiry heap earns its keep: the
// stateless planner scan pays O(users) per epoch regardless of how many
// sessions actually need a decision, while the sweep pays per executed
// handover plus one index compile per 60 s window of epochs. argv[2]
// scales the user count (0.2 -> 200k users for the perf-smoke lane,
// 0.02 -> 20k users for the TSan lane); argv[1] is the JSON output path.
//
// Structure — verification and timing are separate:
//  * verify (untimed) — a small-table sweep runs next to simulateHandovers
//    for a subsample of users: every handover's time, endpoints and
//    latency must match the spec timeline bit for bit (hard gate, exit
//    non-zero). The per-user planner is the test-only executable spec
//    (openspace_spec); the sweep is only allowed to be faster, never
//    different.
//    The verify pass is the first to run the 24-epoch chain, so it pays
//    the chain's index compiles: the record's index_compiles / index_hits
//    are the compiled-index cache misses and hits over that chain, and the
//    timed passes below reuse those indexes.
//  * serial sweep (timed) — seed the full population, then run the epoch
//    chain at one thread. This is the single-core number the >= 10x
//    headline is measured against.
//  * parallel sweep (timed) — a fresh identically-seeded table swept at
//    the pool thread count. Final table state checksum and the per-epoch
//    event-checksum chain must match the serial run bit for bit (hard
//    gate; serial==parallel is the determinism contract).
//  * baseline (timed) — the per-user planner scan the sweep replaces:
//    the spec's bestSatelliteAt(user, t) at every epoch start, measured on a
//    subsample and extrapolated to the full population. The >= 10x floor
//    is enforced by tools/bench_compare.py, not here (wall-clock asserts
//    flake on loaded machines; checksum gates cannot).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/session/handover_sweep.hpp>
#include <openspace/session/session_table.hpp>
#include <openspace/sim/population.hpp>
#include <openspace/sim/session_scenarios.hpp>
#include <openspace/spec/handover.hpp>

#include "bench_timing.hpp"

namespace {

using namespace openspace;
using namespace openspace::bench;

constexpr int kPasses = 3;      // best-of to shrug off scheduler noise
constexpr int kEpochs = 24;     // steady-state window: 24 x 15 s
constexpr double kEpochS = 15.0;

/// One seed + epoch-chain run over the full population; the epoch loop is
/// the timed region.
struct SweepRun {
  double seedS = 0.0;
  double sweepS = 0.0;
  std::uint64_t stateChecksum = 0;
  std::uint64_t eventChain = kFnvOffsetBasis;
  std::size_t touched = 0;
  std::size_t handovers = 0;
  std::size_t holes = 0;
  std::size_t reacquisitions = 0;
  std::size_t certHits = 0;
  std::size_t certMisses = 0;
  double outageS = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_session.json";
  const double scale =
      argc > 2 ? std::clamp(std::atof(argv[2]), 1e-3, 10.0) : 1.0;
  const double wallStartS = nowS();
  const int poolThreads = parallelThreadCount();

  // --- shared constellation + population -----------------------------------
  EphemerisService eph;
  for (const auto& el : makeWalkerStar(iridiumConfig())) {
    eph.publish(ProviderId{1}, el);
  }
  const std::size_t satCount = eph.satellites().size();
  std::unordered_map<std::uint32_t, std::uint32_t> indexOf;
  {
    const auto& sats = eph.satellites();
    for (std::size_t i = 0; i < sats.size(); ++i) {
      indexOf[sats[i].value()] = static_cast<std::uint32_t>(i);
    }
  }

  SweepConfig cfg;
  cfg.minElevationRad = deg2rad(10.0);
  cfg.dropOnCertExpiry = false;  // spec equivalence: certs never gate
  const HandoverSweep sweeper(eph, cfg);

  const std::size_t users = std::max<std::size_t>(
      256, static_cast<std::size_t>(1'000'000 * scale));
  const double windowS = kEpochs * kEpochS;

  Rng rng(42);
  const CertificateAuthority authority(ProviderId{1}, 0xB47C'5E55ull,
                                       /*lifetimeS=*/7.0 * 86'400.0);
  const auto sampled =
      defaultWorldPopulation().sampleUsers(static_cast<int>(users), rng);
  const std::vector<SessionSeed> seeds =
      issueSeedCertificates(authority, sampled, /*firstUser=*/1, /*nowS=*/0.0);
  // Provision the certificate caches for the population (the §2.2 point:
  // a steady-state handover is a cache hit, i.e. a purely local operation).
  const std::size_t cacheBudget = 128 * users;

  // --- verify (untimed): sweep == spec, bit for bit ------------------------
  const std::size_t verifyUsers = std::min<std::size_t>(users, 200);
  bool legacyMatch = true;
  std::size_t verifyEvents = 0;
  std::size_t indexCompiles = 0;
  std::size_t indexHits = 0;
  {
    const std::vector<SessionSeed> sub(seeds.begin(),
                                       seeds.begin() + verifyUsers);
    SessionTable table(satCount);
    table.setCertificateCacheByteBudget(cacheBudget);
    sweeper.seed(table, sub, 0.0, SeedMode::Planner);
    std::vector<SessionEvent> events;
    const std::size_t missesBefore = FootprintIndex2::compiledCacheMisses();
    const std::size_t hitsBefore = FootprintIndex2::compiledCacheHits();
    for (int e = 1; e <= kEpochs; ++e) {
      sweeper.runEpoch(table, e * kEpochS, &events);
    }
    indexCompiles = FootprintIndex2::compiledCacheMisses() - missesBefore;
    indexHits = FootprintIndex2::compiledCacheHits() - hitsBefore;
    std::unordered_map<UserId, std::vector<SessionEvent>> byUser;
    for (const SessionEvent& ev : events) byUser[ev.user].push_back(ev);
    for (const SessionSeed& s : sub) {
      const HandoverTimeline tl =
          simulateHandovers(eph, cfg.minElevationRad, s.location, 0.0,
                            windowS, cfg.mode, cfg.reassocCost);
      const auto& mine = byUser[s.user];
      bool ok = mine.size() == tl.events.size();
      for (std::size_t j = 0; ok && j < mine.size(); ++j) {
        const HandoverEvent& ref = tl.events[j];
        ok = bitsOf(mine[j].atS) == bitsOf(ref.atS) &&
             mine[j].fromSat == indexOf.at(ref.from.value()) &&
             mine[j].toSat == indexOf.at(ref.to.value()) &&
             bitsOf(mine[j].latencyS) == bitsOf(ref.latencyS);
      }
      verifyEvents += tl.events.size();
      legacyMatch = legacyMatch && ok;
    }
  }

  // --- full-population sweeps: serial (timed) then parallel (timed) --------
  const int parThreads = std::max(poolThreads, 4);
  const auto runAt = [&](int threads) {
    SweepRun r;
    SessionTable table(satCount);
    table.setCertificateCacheByteBudget(cacheBudget);
    double t0 = nowS();
    // Seeding is thread-count invariant; run it on the pool either way so
    // the timed region is exactly the epoch chain.
    sweeper.seed(table, seeds, 0.0, SeedMode::Planner);
    r.seedS = nowS() - t0;
    setParallelThreadCount(threads);
    t0 = nowS();
    for (int e = 1; e <= kEpochs; ++e) {
      const EpochStats st = sweeper.runEpoch(table, e * kEpochS);
      r.eventChain = fnv1a(r.eventChain, st.eventChecksum);
      r.touched += st.sessionsTouched;
      r.handovers += st.handovers;
      r.holes += st.coverageHoles;
      r.reacquisitions += st.reacquisitions;
      r.certHits += st.certCacheHits;
      r.certMisses += st.certCacheMisses;
      r.outageS += st.outageS;
    }
    r.sweepS = nowS() - t0;
    setParallelThreadCount(poolThreads);
    r.stateChecksum = table.stateChecksum();
    return r;
  };
  const SweepRun serial = runAt(1);
  const SweepRun parallel = runAt(parThreads);
  const bool serialParallelMatch =
      serial.stateChecksum == parallel.stateChecksum &&
      serial.eventChain == parallel.eventChain &&
      serial.handovers == parallel.handovers &&
      bitsOf(serial.outageS) == bitsOf(parallel.outageS);

  // --- baseline (timed): the per-user planner scan, subsampled -------------
  const std::size_t baseUsers = std::min<std::size_t>(users, 384);
  setParallelThreadCount(1);  // single-core, like the serial sweep
  const Timed base = timeIt([&] {
    std::uint64_t h = kFnvOffsetBasis;
    for (int e = 0; e < kEpochs; ++e) {
      const double t = e * kEpochS;
      for (std::size_t u = 0; u < baseUsers; ++u) {
        const auto best =
            bestSatelliteAt(eph, cfg.minElevationRad, seeds[u].location, t);
        h = fnv1a(h, best ? best->value() : kNoSatellite);
      }
    }
    return h;
  }, kPasses);
  setParallelThreadCount(poolThreads);
  const double baselineS =
      base.bestPassS * static_cast<double>(users) /
      static_cast<double>(baseUsers);
  const double speedupPlanner =
      serial.sweepS > 0.0 ? baselineS / serial.sweepS : 0.0;
  const double speedupParallel =
      parallel.sweepS > 0.0 ? serial.sweepS / parallel.sweepS : 0.0;

  const bool allMatch = legacyMatch && serialParallelMatch;

  // --- report --------------------------------------------------------------
  std::printf("# Session plane: batched epoch sweep vs per-user planner "
              "scan (%zu sats, %zu users, %d epochs of %.0f s, scale=%.3f)\n\n",
              satCount, users, kEpochs, kEpochS, scale);
  std::printf("%-22s %-12s %-14s %-10s\n", "path", "threads", "epochs_s",
              "speedup");
  std::printf("%-22s %-12zu %-14.3f %-10s\n", "planner scan (extrap)",
              std::size_t{1}, baselineS, "1.00");
  std::printf("%-22s %-12zu %-14.3f %-10.2f\n", "epoch sweep", std::size_t{1},
              serial.sweepS, speedupPlanner);
  std::printf("%-22s %-12d %-14.3f %-10.2f\n", "epoch sweep", parThreads,
              parallel.sweepS,
              parallel.sweepS > 0.0 ? baselineS / parallel.sweepS : 0.0);
  std::printf("\n# seed: %.3f s (%d threads); sweep touched %zu sessions, "
              "%zu handovers, %zu holes, %zu reacquisitions\n",
              serial.seedS, poolThreads, serial.touched, serial.handovers,
              serial.holes, serial.reacquisitions);
  std::printf("# cert cache: %zu hits / %zu misses (budget %zu B); "
              "outage %.3f s across the fleet\n",
              serial.certHits, serial.certMisses, cacheBudget, serial.outageS);
  std::printf("# epoch index: %zu compiles / %zu reuses over %d epochs\n",
              indexCompiles, indexHits, kEpochs);
  std::printf("# gates: sweep==legacy (%zu users, %zu events) %s  "
              "serial==parallel %s\n",
              verifyUsers, verifyEvents, legacyMatch ? "MATCH" : "MISMATCH",
              serialParallelMatch ? "MATCH" : "MISMATCH");

  const double wallS = nowS() - wallStartS;
  if (std::FILE* f = std::fopen(jsonPath, "w")) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"session\",\n"
        "  \"wall_seconds\": %.6f,\n"
        "  \"threads\": %d,\n"
        "  \"scale\": %.4f,\n"
        "  \"sats\": %zu,\n"
        "  \"users\": %zu,\n"
        "  \"epochs\": %d,\n"
        "  \"epoch_s\": %.3f,\n"
        "  \"seed_s\": %.6f,\n"
        "  \"sweep_serial_s\": %.6f,\n"
        "  \"sweep_parallel_s\": %.6f,\n"
        "  \"per_epoch_serial_ms\": %.4f,\n"
        "  \"sessions_touched\": %zu,\n"
        "  \"handovers\": %zu,\n"
        "  \"coverage_holes\": %zu,\n"
        "  \"reacquisitions\": %zu,\n"
        "  \"cert_cache_hits\": %zu,\n"
        "  \"cert_cache_misses\": %zu,\n"
        "  \"outage_s\": %.6f,\n"
        "  \"index_compiles\": %zu,\n"
        "  \"index_hits\": %zu,\n"
        "  \"baseline_users\": %zu,\n"
        "  \"baseline_probe_s\": %.6f,\n"
        "  \"baseline_extrapolated_s\": %.6f,\n"
        "  \"speedup_vs_planner\": %.3f,\n"
        "  \"speedup_parallel\": %.3f,\n"
        "  \"equivalence_users\": %zu,\n"
        "  \"equivalence_events\": %zu,\n"
        "  \"state_checksum\": \"%016llx\",\n"
        "  \"event_checksum\": \"%016llx\",\n"
        "  \"checksums_match\": %s\n}\n",
        wallS, parThreads, scale, satCount, users, kEpochs, kEpochS,
        serial.seedS, serial.sweepS, parallel.sweepS,
        1e3 * serial.sweepS / kEpochs, serial.touched, serial.handovers,
        serial.holes, serial.reacquisitions, serial.certHits,
        serial.certMisses, serial.outageS, indexCompiles, indexHits,
        baseUsers, base.bestPassS,
        baselineS, speedupPlanner, speedupParallel, verifyUsers, verifyEvents,
        static_cast<unsigned long long>(serial.stateChecksum),
        static_cast<unsigned long long>(serial.eventChain),
        allMatch ? "true" : "false");
    std::fclose(f);
    std::printf("# json: %s\n", jsonPath);
  }
  return allMatch ? 0 : 1;
}
