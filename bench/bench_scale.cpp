// Mega-constellation scaling bench: 1k -> 10k -> 66k satellites through
// propagate -> index -> topology -> route, per-stage time normalized per
// satellite so a regression localizes to the stage (and tier) that caused
// it.
//
// Each tier is a realistic multi-shell fleet composed by MultiShellFleet
// (Starlink-style Delta shells stacked with a polar Star shell), not one
// giant Walker plane set, so the bench exercises the shell generator, the
// composed-hash cache keying, and the per-shell +grid wiring alongside the
// hot kernels.
//
// Structure — verification and timing are separate sweeps (the
// bench_temporal_delta convention):
//  * propagate (timed, single thread) — FleetEphemeris::positionsAt over
//    the compiled fleet, the cold batch path ConstellationSnapshot runs.
//    Untimed gate: bit-identical serial vs parallel (full-bit fold of every
//    ECI+ECEF component over every step).
//  * index (timed) — FootprintIndex2 compile cost per satellite. Untimed
//    gates: indexed closestVisible == the snapshot's brute scan at several
//    ground sites, and the FootprintIndex2 build (CSR plus
//    certificate-driven countCovering over a fixed block of cap samples)
//    is bit-identical serial vs parallel.
//  * topology (timed) — lazy ISL adjacency build (grid-pruned, never
//    all-pairs at these sizes) on a cold snapshot per pass; per-tier range
//    caps keep mean ISL degree in the tens like a real +grid/motif fleet.
//    Untimed gate: the snapshot+topology pipeline is bit-identical serial
//    vs parallel.
//  * route (timed) — shortestIslPath over spread satellite pairs on the
//    cached adjacency: Dijkstra cost at fleet scale.
//
// argv[1] = JSON output path (default BENCH_scale.json); argv[2] = workload
// scale in [1e-3, 10] (shrinks every shell's satellite count, e.g. 0.2 for
// the CI perf-smoke lane); argv[3] = number of tiers to run, 1..3 (the TSan
// lane runs only the 1k tier). Exit is non-zero unless every gate matches.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/geodetic.hpp>
#include <openspace/geo/spherical_index.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/shells.hpp>
#include <openspace/orbit/snapshot.hpp>

#include "bench_timing.hpp"

namespace {

using namespace openspace;
using namespace openspace::bench;

constexpr int kPasses = 3;  // best-of to shrug off scheduler noise

/// Full-bit fold of a position array (verification sweeps only).
std::uint64_t mixVecs(std::uint64_t h, const std::vector<Vec3>& v) {
  for (const Vec3& p : v) {
    h = fnv1a(h, bitsOf(p.x));
    h = fnv1a(h, bitsOf(p.y));
    h = fnv1a(h, bitsOf(p.z));
  }
  return h;
}

/// Full-bit fold of an ISL adjacency (verification sweeps only).
std::uint64_t mixAdjacency(
    std::uint64_t h,
    const std::vector<std::vector<std::pair<std::size_t, double>>>& adj) {
  for (const auto& nbrs : adj) {
    h = fnv1a(h, nbrs.size());
    for (const auto& [j, d] : nbrs) {
      h = fnv1a(h, j);
      h = fnv1a(h, bitsOf(d));
    }
  }
  return h;
}

/// Deterministic xorshift64* for sample directions (no process entropy:
/// the bench must produce the same workload in every run).
struct SplitRng {
  std::uint64_t state;
  double next() {  // uniform in [-1, 1)
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const std::uint64_t bits = state * 0x2545F4914F6CDD1DULL;
    return static_cast<double>(bits >> 11) *
               (2.0 / 9007199254740992.0) -
           1.0;
  }
};

std::vector<Vec3> randomUnitDirs(std::size_t n, std::uint64_t seed) {
  std::vector<Vec3> dirs;
  dirs.reserve(n);
  SplitRng rng{seed};
  while (dirs.size() < n) {
    const Vec3 v{rng.next(), rng.next(), rng.next()};
    const double len = v.norm();
    if (len < 1e-3 || len > 1.0) continue;  // rejection-sample the ball
    dirs.push_back(Vec3{v.x / len, v.y / len, v.z / len});
  }
  return dirs;
}

/// One scaling tier: a named multi-shell fleet plus its ISL range cap
/// (chosen per tier to hold mean degree in the tens, like a real fleet).
struct Tier {
  const char* name;
  MultiShellConfig config;
  double maxIslRangeM;
};

ShellSpec delta(int t, int p, int f, double altM, double incDeg) {
  ShellSpec s;
  s.kind = ShellKind::Delta;
  s.walker = {t, p, f, altM, deg2rad(incDeg)};
  return s;
}

ShellSpec star(int t, int p, int f, double altM, double incDeg) {
  ShellSpec s;
  s.kind = ShellKind::Star;
  s.walker = {t, p, f, altM, deg2rad(incDeg)};
  return s;
}

/// Shrink a shell's satellite count by `scale`, keeping T a positive
/// multiple of P (the Walker validity requirement; F < P is untouched).
void applyScale(ShellSpec& shell, double scale) {
  const int p = shell.walker.planes;
  const int scaled = static_cast<int>(
      static_cast<double>(shell.walker.totalSatellites) * scale);
  shell.walker.totalSatellites = std::max(p, scaled / p * p);
}

std::vector<Tier> makeTiers(double scale) {
  std::vector<Tier> tiers;
  {
    Tier t;
    t.name = "1k";
    t.config.shells = {delta(720, 36, 17, km(550.0), 53.0),
                       star(360, 30, 1, km(560.0), 86.4)};
    // The small tier also exercises the cross-shell link policy; the big
    // tiers keep shells +grid-only so their topology time isolates the
    // grid-pruned adjacency build.
    t.config.crossShell = CrossShellLinkPolicy::NearestVisible;
    t.config.crossShellK = 1;
    t.maxIslRangeM = 3.0e6;
    tiers.push_back(t);
  }
  {
    Tier t;
    t.name = "10k";
    t.config.shells = {delta(4320, 72, 25, km(550.0), 53.0),
                       delta(3600, 60, 13, km(570.0), 70.0),
                       star(2160, 36, 5, km(560.0), 86.4)};
    t.maxIslRangeM = 1.2e6;
    tiers.push_back(t);
  }
  {
    Tier t;
    t.name = "66k";
    t.config.shells = {delta(28800, 144, 31, km(550.0), 53.0),
                       delta(21600, 120, 47, km(1110.0), 53.8),
                       star(15840, 96, 11, km(1130.0), 87.9)};
    t.maxIslRangeM = 5.0e5;
    tiers.push_back(t);
  }
  for (Tier& t : tiers) {
    for (ShellSpec& s : t.config.shells) applyScale(s, scale);
  }
  return tiers;
}

/// Results of one tier, in JSON field order.
struct TierResult {
  std::string name;
  std::size_t sats = 0;
  std::size_t shells = 0;
  std::size_t shellLinks = 0;
  // propagate
  int sweepSteps = 0;
  double propBatchS = 0.0;
  double nsPerSatStep = 0.0;
  bool propSerialParallelMatch = false;
  // index
  double indexBuildS = 0.0;
  double usPerSatIndex = 0.0;
  std::size_t capSamples = 0;
  bool closestVisibleMatch = false;
  bool indexSerialParallelMatch = false;
  // topology
  double maxIslRangeM = 0.0;
  double topoBuildS = 0.0;
  double usPerSatTopo = 0.0;
  std::size_t islLinks = 0;
  double meanDegree = 0.0;
  bool topoSerialParallelMatch = false;
  // route
  std::size_t routePairs = 0;
  std::size_t routeReached = 0;
  double routeS = 0.0;

  bool allGates() const {
    return propSerialParallelMatch && closestVisibleMatch &&
           indexSerialParallelMatch && topoSerialParallelMatch;
  }
};

TierResult runTier(const Tier& tier, int poolThreads) {
  TierResult r;
  r.name = tier.name;
  r.maxIslRangeM = tier.maxIslRangeM;

  const MultiShellFleet fleet(tier.config);
  const std::vector<OrbitalElements>& elements = fleet.elements();
  const std::size_t n = fleet.size();
  r.sats = n;
  r.shells = fleet.shellCount();

  const double t0S = 300.0;
  const double stepS = 1.0;
  const double maskRad = deg2rad(25.0);

  // Step count scaled so steps*sats stays roughly constant across tiers
  // (the per-step cost is linear in the fleet).
  const int steps = static_cast<int>(
      std::clamp<std::size_t>(262'144 / std::max<std::size_t>(n, 1), 4, 64));
  r.sweepSteps = steps;

  // --- propagate: the snapshot's cold batch path, single thread -----------
  const auto compiled =
      FleetEphemeris::compiled(elements, fleet.elementsHash());
  const auto propPass = [&] {
    std::vector<Vec3> eci, ecef;
    std::uint64_t h = kFnvOffsetBasis;
    for (int s = 0; s < steps; ++s) {
      compiled->positionsAt(t0S + s * stepS, eci, ecef);
      // O(1) per-step summary: cheap enough not to perturb the timing,
      // deterministic so timeIt's stability assert has teeth.
      h = fnv1a(h, bitsOf(eci.front().x));
      h = fnv1a(h, bitsOf(eci[n / 2].y));
      h = fnv1a(h, bitsOf(ecef.back().z));
    }
    return h;
  };
  setParallelThreadCount(1);
  const Timed prop = timeIt(propPass, kPasses);
  setParallelThreadCount(poolThreads);
  r.propBatchS = prop.bestPassS;
  r.nsPerSatStep = 1e9 * prop.bestPassS /
                   (static_cast<double>(n) * static_cast<double>(steps));

  // Untimed gate: bit-identical serial vs parallel over every step's full
  // ECI+ECEF bits.
  {
    const auto foldSweep = [&] {
      std::vector<Vec3> eci, ecef;
      std::uint64_t h = kFnvOffsetBasis;
      for (int s = 0; s < steps; ++s) {
        compiled->positionsAt(t0S + s * stepS, eci, ecef);
        h = mixVecs(h, eci);
        h = mixVecs(h, ecef);
      }
      return h;
    };
    setParallelThreadCount(1);
    const std::uint64_t serial = foldSweep();
    setParallelThreadCount(std::max(poolThreads, 4));
    const std::uint64_t parallel = foldSweep();
    setParallelThreadCount(poolThreads);
    r.propSerialParallelMatch = serial == parallel;
  }

  // --- index: FootprintIndex2 compile --------------------------------------
  const auto snap =
      std::make_shared<const ConstellationSnapshot>(elements, t0S);
  const Timed idxBuild = timeIt([&] {
    const FootprintIndex2 idx(snap, maskRad);
    // The first coverage query builds the cover certificates: the timed
    // build covers the whole index, as before the certificates went lazy.
    (void)idx.anyCovers(Vec3{0.0, 0.0, 1.0});
    return fnv1a(fnv1a(kFnvOffsetBasis, idx.approxBytes()), idx.size());
  }, kPasses);
  r.indexBuildS = idxBuild.bestPassS;
  r.usPerSatIndex = 1e6 * idxBuild.bestPassS / static_cast<double>(n);

  const FootprintIndex2 footprints(snap, maskRad);
  {
    // Indexed closestVisible against the snapshot's brute scan.
    const double sites[][2] = {{40.44, -79.99}, {-33.93, 18.42},
                               {78.22, 15.64},  {-51.63, -69.22},
                               {0.35, 32.58}};
    bool match = true;
    for (const auto& site : sites) {
      const Vec3 ecef =
          geodeticToEcef(Geodetic::fromDegrees(site[0], site[1]));
      match = match && footprints.closestVisible(ecef) ==
                           snap->closestVisible(ecef, maskRad);
    }
    r.closestVisibleMatch = match;
  }

  // Serial==parallel gate over the FootprintIndex2 build: the full CSR
  // and, through the whole-cell certificates, countCovering over a fixed
  // block of cap samples.
  {
    const std::size_t samples = 1u << 17;
    r.capSamples = samples;
    const std::vector<Vec3> dirs = randomUnitDirs(samples, 0x5CA1EULL);
    const auto foldIndex = [&] {
      const FootprintIndex2 idx(snap, maskRad);
      const SphericalCapIndex& cells = idx.capIndex();
      std::uint64_t h = fnv1a(kFnvOffsetBasis, cells.entryCount());
      for (std::size_t c = 0; c < cells.cellCount(); ++c) {
        h = fnv1a(h, cells.cellEntryRange(c).first);
      }
      for (const std::uint32_t e : cells.entries()) h = fnv1a(h, e);
      for (const Vec3& d : dirs) {
        h = fnv1a(h, static_cast<std::uint64_t>(idx.countCovering(d, 3)));
      }
      return h;
    };
    setParallelThreadCount(1);
    const std::uint64_t serial = foldIndex();
    setParallelThreadCount(std::max(poolThreads, 4));
    const std::uint64_t parallel = foldIndex();
    setParallelThreadCount(poolThreads);
    r.indexSerialParallelMatch = serial == parallel;
  }

  // --- topology: cold ISL adjacency build per pass -------------------------
  {
    std::vector<std::unique_ptr<ConstellationSnapshot>> coldSnaps;
    for (int p = 0; p < kPasses; ++p) {
      coldSnaps.push_back(
          std::make_unique<ConstellationSnapshot>(elements, t0S));
    }
    int pass = 0;
    const Timed topo = timeIt([&] {
      const auto isl = coldSnaps[static_cast<std::size_t>(pass++)]->islTopology(
          tier.maxIslRangeM);
      return fnv1a(fnv1a(kFnvOffsetBasis, isl->linkCount),
                   isl->adjacency.front().size());
    }, kPasses);
    r.topoBuildS = topo.bestPassS;
    r.usPerSatTopo = 1e6 * topo.bestPassS / static_cast<double>(n);
    const auto isl = snap->islTopology(tier.maxIslRangeM);
    r.islLinks = isl->linkCount;
    r.meanDegree =
        2.0 * static_cast<double>(isl->linkCount) / static_cast<double>(n);
    r.shellLinks = fleet.islLinks(*snap).size();
  }

  // Serial==parallel gate over the snapshot+topology pipeline.
  {
    const auto foldPipeline = [&] {
      const ConstellationSnapshot s(elements, t0S);
      std::uint64_t h = mixVecs(kFnvOffsetBasis, s.eci());
      h = mixVecs(h, s.ecef());
      return mixAdjacency(h, s.islTopology(tier.maxIslRangeM)->adjacency);
    };
    setParallelThreadCount(1);
    const std::uint64_t serial = foldPipeline();
    setParallelThreadCount(std::max(poolThreads, 4));
    const std::uint64_t parallel = foldPipeline();
    setParallelThreadCount(poolThreads);
    r.topoSerialParallelMatch = serial == parallel;
  }

  // --- route: Dijkstra over the cached adjacency ---------------------------
  {
    // Endpoints inside shell 0: the big tiers keep shells +grid-only
    // (cross-shell policy None), so shells are deliberate islands and a
    // cross-shell pair would measure an unreachable flood, not a path.
    const auto [s0, s0End] = fleet.shellRange(0);
    const std::size_t m = s0End - s0;
    const std::size_t pairs[][2] = {{s0, s0 + m / 2},
                                    {s0 + m / 5, s0 + 4 * m / 5},
                                    {s0 + m / 3, s0End - 1}};
    r.routePairs = std::size(pairs);
    const Timed route = timeIt([&] {
      std::uint64_t h = kFnvOffsetBasis;
      for (const auto& pr : pairs) {
        const auto path =
            snap->shortestIslPath(pr[0], pr[1], tier.maxIslRangeM);
        if (path) {
          h = fnv1a(h, bitsOf(path->first));
          h = fnv1a(h, static_cast<std::uint64_t>(path->second));
        } else {
          h = fnv1a(h, 0xD15C0ULL);
        }
      }
      return h;
    }, kPasses);
    r.routeS = route.bestPassS;
    for (const auto& pr : pairs) {
      if (snap->shortestIslPath(pr[0], pr[1], tier.maxIslRangeM)) {
        ++r.routeReached;
      }
    }
  }

  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_scale.json";
  const double scale =
      argc > 2 ? std::clamp(std::atof(argv[2]), 1e-3, 10.0) : 1.0;
  const int maxTiers = argc > 3 ? std::clamp(std::atoi(argv[3]), 1, 3) : 3;
  const double wallStartS = nowS();
  const int poolThreads = parallelThreadCount();

  std::vector<Tier> tiers = makeTiers(scale);
  tiers.resize(static_cast<std::size_t>(
      std::min<int>(maxTiers, static_cast<int>(tiers.size()))));

  std::vector<TierResult> results;
  for (const Tier& tier : tiers) {
    results.push_back(runTier(tier, poolThreads));
  }

  bool allMatch = true;
  for (const TierResult& r : results) allMatch = allMatch && r.allGates();

  // --- report --------------------------------------------------------------
  std::printf("# Mega-constellation scaling: propagate -> index -> topology "
              "-> route (scale=%.3f, best of %d passes, single-thread "
              "kernel timings)\n\n",
              scale, kPasses);
  std::printf("%-5s %-7s %-9s %-9s %-9s %-9s %-8s %-8s\n", "tier", "sats",
              "prop", "idx", "topo", "route", "deg", "ns/sat");
  for (const TierResult& r : results) {
    std::printf("%-5s %-7zu %-9.4f %-9.4f %-9.4f %-9.4f %-8.1f %-8.1f\n",
                r.name.c_str(), r.sats, r.propBatchS, r.indexBuildS,
                r.topoBuildS, r.routeS, r.meanDegree, r.nsPerSatStep);
  }
  std::printf("\n");
  for (const TierResult& r : results) {
    std::printf("# %s: gates: "
                "prop serial==parallel %s  "
                "closestVisible %s  index serial==parallel %s  "
                "topo serial==parallel %s\n",
                r.name.c_str(),
                r.propSerialParallelMatch ? "MATCH" : "MISMATCH",
                r.closestVisibleMatch ? "MATCH" : "MISMATCH",
                r.indexSerialParallelMatch ? "MATCH" : "MISMATCH",
                r.topoSerialParallelMatch ? "MATCH" : "MISMATCH");
  }

  const double wallS = nowS() - wallStartS;
  if (std::FILE* f = std::fopen(jsonPath, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"scale\",\n"
                 "  \"wall_seconds\": %.6f,\n"
                 "  \"threads\": %d,\n"
                 "  \"scale\": %.4f,\n"
                 "  \"tiers\": [\n",
                 wallS, poolThreads, scale);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const TierResult& r = results[i];
      std::fprintf(
          f,
          "    {\n"
          "      \"tier\": \"%s\",\n"
          "      \"sats\": %zu,\n"
          "      \"shells\": %zu,\n"
          "      \"shell_links\": %zu,\n"
          "      \"sweep_steps\": %d,\n"
          "      \"prop_batch_s\": %.6f,\n"
          "      \"prop_ns_per_sat_step\": %.2f,\n"
          "      \"index_build_s\": %.6f,\n"
          "      \"index_us_per_sat\": %.4f,\n"
          "      \"cap_samples\": %zu,\n"
          "      \"max_isl_range_m\": %.1f,\n"
          "      \"topo_build_s\": %.6f,\n"
          "      \"topo_us_per_sat\": %.4f,\n"
          "      \"isl_links\": %zu,\n"
          "      \"mean_degree\": %.2f,\n"
          "      \"route_pairs\": %zu,\n"
          "      \"route_reached\": %zu,\n"
          "      \"route_s\": %.6f,\n"
          "      \"gates_match\": %s\n"
          "    }%s\n",
          r.name.c_str(), r.sats, r.shells, r.shellLinks, r.sweepSteps,
          r.propBatchS, r.nsPerSatStep, r.indexBuildS, r.usPerSatIndex,
          r.capSamples, r.maxIslRangeM, r.topoBuildS, r.usPerSatTopo, r.islLinks, r.meanDegree,
          r.routePairs, r.routeReached, r.routeS,
          r.allGates() ? "true" : "false",
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"checksums_match\": %s\n}\n",
                 allMatch ? "true" : "false");
    std::fclose(f);
    std::printf("# json: %s\n", jsonPath);
  }
  return allMatch ? 0 : 1;
}
