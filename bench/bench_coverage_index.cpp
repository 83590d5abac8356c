// Coverage-index benchmark: brute-force executable specs vs the spherical
// footprint index, on the library's two hottest query mixes.
//
// Scenarios:
//  * kernel66 / kernel1000 — the headline: the visibility query kernel of a
//    fig2c-style Monte-Carlo sweep, isolated from the RNG. The same
//    pre-drawn unit-sphere sample array is pushed through the brute
//    orbit-layer FootprintIndex::anyCovers (early-exit scan over every
//    footprint) and through FootprintIndex2::anyCovers (cell-grid index
//    with whole-cell cover certificates) at each snapshot of the time
//    grid, folding every boolean into a checksum. End-to-end MC timing is
//    RNG-bound (~60 ns/sample just to draw the direction), so this is the
//    apples-to-apples number for the index itself.
//  * mc66 / mc1000 — the same sweeps end to end (RNG included):
//    openspace::legacy::monteCarloCoverage (every sample tested against
//    every footprint) vs the indexed openspace::monteCarloCoverage,
//    single-core, plus the indexed path at the ambient thread count.
//  * assoc66 / assoc1000 — million-user association: per-user brute
//    closest-visible scans vs the batched associateUsers() fan-out,
//    single-core and parallel.
//
// Hard gates (nonzero exit so CI fails loudly rather than recording
// garbage):
//  * indexed == brute checksums, bit for bit, in every scenario (at 1000
//    satellites the association brute runs on a user subsample);
//  * serial == parallel checksums for every parallel path.
//
// Besides the human-readable table the bench writes a machine-readable
// JSON record to BENCH_coverage_index.json (or argv[1]). argv[2] is an
// optional workload scale factor (e.g. 0.02 for the TSan smoke lane).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <openspace/auth/association.hpp>
#include <openspace/concurrency/parallel.hpp>
#include <openspace/coverage/coverage.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/spec/coverage_legacy.hpp>
#include <openspace/spec/footprint_index.hpp>

#include "bench_timing.hpp"

namespace {

using namespace openspace;
using namespace openspace::bench;

// Passes per leg. Each brute leg runs interleaved with its indexed leg,
// one pass of each in alternating order, and each keeps its fastest pass,
// so host load that comes and goes within a run slows both legs alike. It
// cannot cancel a slowdown that lasts the whole process: on a shared
// 4-vCPU VM the brute legs' minima still differ ~1.5x between runs, and
// the speedups (ratios of the per-leg minima) with them.
constexpr int kPasses = 7;

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

/// One Monte-Carlo coverage sweep over a time grid, folding every
/// coverage-fraction's bits. `estimator` is either the legacy spec or the
/// indexed estimator — identical signature, identical (gated) bits.
template <typename Estimator>
std::uint64_t mcSweep(const std::vector<OrbitalElements>& sats, int steps,
                      int samples, Estimator&& estimator) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  Rng rng(2024);
  for (int s = 0; s < steps; ++s) {
    const auto est =
        estimator(sats, s * 100.0, deg2rad(10.0), samples, rng);
    h = fnv1a(h, bitsOf(est.coverageFraction));
  }
  return h;
}

/// Push every pre-drawn sample through `index.anyCovers`, folding the
/// booleans 64 at a time so the checksum costs a fraction of a nanosecond
/// per query on both sides of the comparison.
template <typename Index>
std::uint64_t kernelPass(const Index& index, const std::vector<Vec3>& samples) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::uint64_t word = 0;
  std::size_t n = 0;
  for (const Vec3& v : samples) {
    word = (word << 1) | static_cast<std::uint64_t>(index.anyCovers(v));
    if (++n % 64 == 0) {
      h = fnv1a(h, word);
      word = 0;
    }
  }
  return fnv1a(h, word);
}

struct KernelTimings {
  Timed brute;
  Timed indexed;
  double indexBuildS = 0.0;  ///< one-time FootprintIndex2 builds, all steps
};

/// The pre-drawn-samples query kernel over a fig2c-style time grid: both
/// index flavors are built once per snapshot (outside the timed region —
/// the build cost is reported separately and amortized in production by
/// FootprintIndex2::compiled's LRU), then the identical sample array is
/// queried against each snapshot's footprints.
KernelTimings kernelSweep(const std::vector<OrbitalElements>& fleet, int steps,
                          const std::vector<Vec3>& samples, double maskRad) {
  std::vector<std::shared_ptr<const ConstellationSnapshot>> snaps;
  snaps.reserve(static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    snaps.push_back(SnapshotCache::global().at(fleet, s * 100.0));
  }
  std::vector<FootprintIndex> brute;
  brute.reserve(snaps.size());
  for (const auto& snap : snaps) brute.emplace_back(*snap, maskRad);

  KernelTimings kt;
  std::vector<FootprintIndex2> indexed;
  indexed.reserve(snaps.size());
  const double buildT0 = nowS();
  for (const auto& snap : snaps) {
    // The first coverage query builds the cover certificates, so the
    // build leg times the whole index and the query passes only queries.
    (void)indexed.emplace_back(snap, maskRad).anyCovers(Vec3{0.0, 0.0, 1.0});
  }
  kt.indexBuildS = nowS() - buildT0;

  const auto sweep = [&](const auto& indexes) {
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const auto& index : indexes) h = fnv1a(h, kernelPass(index, samples));
    return h;
  };
  std::tie(kt.brute, kt.indexed) = timeInterleaved(
      [&] { return sweep(brute); }, [&] { return sweep(indexed); }, kPasses);
  return kt;
}

std::uint64_t foldAssociations(const std::vector<UserAssociation>& out,
                               std::size_t limit) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t u = 0; u < std::min(out.size(), limit); ++u) {
    h = fnv1a(h, out[u].covered ? 1u : 0u);
    h = fnv1a(h, out[u].covered ? out[u].satelliteIndex : 0u);
    h = fnv1a(h, out[u].covered ? bitsOf(out[u].slantRangeM) : 0u);
  }
  return h;
}

/// The per-user brute association (ConstellationSnapshot::closestVisible
/// scans the whole fleet) — the spec associateUsers is gated against.
std::vector<UserAssociation> bruteAssociate(
    const std::vector<OrbitalElements>& fleet, double tSeconds,
    const std::vector<Geodetic>& users, double minElevationRad,
    std::size_t limit) {
  std::vector<UserAssociation> out(std::min(users.size(), limit));
  const auto snap = SnapshotCache::global().at(fleet, tSeconds);
  for (std::size_t u = 0; u < out.size(); ++u) {
    const Vec3 userEcef = geodeticToEcef(users[u]);
    const auto best = snap->closestVisible(userEcef, minElevationRad);
    if (!best) continue;
    out[u].covered = true;
    out[u].satelliteIndex = static_cast<std::uint32_t>(*best);
    out[u].slantRangeM = userEcef.distanceTo(snap->ecef(*best));
  }
  return out;
}

int scaled(double base, double scale) {
  return std::max(1, static_cast<int>(base * scale));
}

}  // namespace

int main(int argc, char** argv) {
  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_coverage_index.json";
  const double scale =
      argc > 2 ? std::clamp(std::atof(argv[2]), 1e-3, 10.0) : 1.0;
  const double wallStartS = nowS();
  const int poolThreads = parallelThreadCount();

  const auto fleet66 = makeWalkerStar(iridiumConfig());
  Rng shellRng(7);
  const auto fleet1000 = makeRandomConstellation(1000, km(600.0), shellRng);

  const int mcSteps = 16;
  const int mc66Samples = scaled(20'000, scale);
  const int mc1000Samples = scaled(20'000, scale);
  const int kernelSamples = scaled(250'000, scale);
  const std::size_t assocUsers = static_cast<std::size_t>(scaled(1e6, scale));
  const std::size_t bruteSubsample =
      static_cast<std::size_t>(scaled(50'000, scale));

  Rng userRng(11);
  std::vector<Geodetic> users;
  users.reserve(assocUsers);
  for (std::size_t i = 0; i < assocUsers; ++i) {
    users.push_back(userRng.surfacePoint());
  }
  const double maskRad = deg2rad(10.0);
  const double assocT = 300.0;

  const auto legacyMc = [](const std::vector<OrbitalElements>& s, double t,
                           double mask, int n, Rng& rng) {
    return legacy::monteCarloCoverage(s, t, mask, n, rng);
  };
  const auto indexedMc = [](const std::vector<OrbitalElements>& s, double t,
                            double mask, int n, Rng& rng) {
    return monteCarloCoverage(s, t, mask, n, rng);
  };

  // --- Pre-drawn-samples query kernel (the headline speedup) -------------
  setParallelThreadCount(1);
  std::vector<Vec3> kernelDirs;
  kernelDirs.reserve(static_cast<std::size_t>(kernelSamples));
  {
    Rng kernelRng(2024);
    for (int i = 0; i < kernelSamples; ++i) {
      kernelDirs.push_back(kernelRng.unitSphere());
    }
  }
  const KernelTimings k66 =
      kernelSweep(fleet66, mcSteps, kernelDirs, maskRad);
  const KernelTimings k1000 = kernelSweep(fleet1000, 4, kernelDirs, maskRad);

  // --- Monte-Carlo sweeps end to end, single-core ------------------------
  const auto [mc66Brute, mc66Indexed] = timeInterleaved(
      [&] { return mcSweep(fleet66, mcSteps, mc66Samples, legacyMc); },
      [&] { return mcSweep(fleet66, mcSteps, mc66Samples, indexedMc); },
      kPasses);
  const auto [mc1000Brute, mc1000Indexed] = timeInterleaved(
      [&] { return mcSweep(fleet1000, 4, mc1000Samples, legacyMc); },
      [&] { return mcSweep(fleet1000, 4, mc1000Samples, indexedMc); }, kPasses);

  // --- Association, single-core ------------------------------------------
  const auto [assoc66Brute, assoc66Serial] = timeInterleaved(
      [&] {
        return foldAssociations(
            bruteAssociate(fleet66, assocT, users, maskRad, users.size()),
            users.size());
      },
      [&] {
        return foldAssociations(
            associateUsers(fleet66, assocT, users, maskRad), users.size());
      }, kPasses);
  const auto [assoc1000BruteSub, assoc1000Serial] = timeInterleaved(
      [&] {
        return foldAssociations(
            bruteAssociate(fleet1000, assocT, users, maskRad, bruteSubsample),
            bruteSubsample);
      },
      [&] {
        return foldAssociations(
            associateUsers(fleet1000, assocT, users, maskRad), users.size());
      }, kPasses);
  const std::uint64_t assoc1000SerialSub = foldAssociations(
      associateUsers(fleet1000, assocT, users, maskRad), bruteSubsample);

  // --- Parallel paths (ambient thread count, floor of 4) -----------------
  setParallelThreadCount(std::max(poolThreads, 4));
  const int parThreads = parallelThreadCount();
  const Timed mc66Par =
      timeIt([&] { return mcSweep(fleet66, mcSteps, mc66Samples, indexedMc); },
             kPasses);
  const Timed mc1000Par = timeIt(
      [&] { return mcSweep(fleet1000, 4, mc1000Samples, indexedMc); }, kPasses);
  const Timed assoc66Par = timeIt([&] {
    return foldAssociations(associateUsers(fleet66, assocT, users, maskRad),
                            users.size());
  }, kPasses);
  const Timed assoc1000Par = timeIt([&] {
    return foldAssociations(associateUsers(fleet1000, assocT, users, maskRad),
                            users.size());
  }, kPasses);
  setParallelThreadCount(poolThreads);

  // --- Gates ---------------------------------------------------------------
  const bool kernel66Match = k66.indexed.checksum == k66.brute.checksum;
  const bool kernel1000Match = k1000.indexed.checksum == k1000.brute.checksum;
  const bool mc66Match = mc66Indexed.checksum == mc66Brute.checksum;
  const bool mc1000Match = mc1000Indexed.checksum == mc1000Brute.checksum;
  const bool mc66ThreadInvariant = mc66Par.checksum == mc66Indexed.checksum;
  const bool mc1000ThreadInvariant =
      mc1000Par.checksum == mc1000Indexed.checksum;
  const bool assoc66Match = assoc66Serial.checksum == assoc66Brute.checksum;
  const bool assoc1000Match = assoc1000SerialSub == assoc1000BruteSub.checksum;
  const bool assoc66ThreadInvariant =
      assoc66Par.checksum == assoc66Serial.checksum;
  const bool assoc1000ThreadInvariant =
      assoc1000Par.checksum == assoc1000Serial.checksum;
  const bool allMatch = kernel66Match && kernel1000Match && mc66Match &&
                        mc1000Match && mc66ThreadInvariant &&
                        mc1000ThreadInvariant && assoc66Match &&
                        assoc1000Match && assoc66ThreadInvariant &&
                        assoc1000ThreadInvariant;

  const auto speedup = [](const Timed& brute, const Timed& fast) {
    return fast.bestPassS > 0.0 ? brute.bestPassS / fast.bestPassS : 0.0;
  };
  const double spKernel66 = speedup(k66.brute, k66.indexed);
  const double spKernel1000 = speedup(k1000.brute, k1000.indexed);
  const double spMc66 = speedup(mc66Brute, mc66Indexed);
  const double spMc1000 = speedup(mc1000Brute, mc1000Indexed);
  const double spAssoc66 = speedup(assoc66Brute, assoc66Serial);
  // The 1000-satellite brute ran on a subsample: scale its time up to the
  // full user count for the reported ratio.
  const double assoc1000BruteFullS =
      assoc1000BruteSub.bestPassS * static_cast<double>(users.size()) /
      static_cast<double>(bruteSubsample);
  const double spAssoc1000 =
      assoc1000Serial.bestPassS > 0.0
          ? assoc1000BruteFullS / assoc1000Serial.bestPassS
          : 0.0;

  std::printf("# Coverage index: brute spec vs spherical footprint index "
              "(scale=%.3f, best of %d passes)\n\n",
              scale, kPasses);
  std::printf("%-12s %-10s %-12s %-12s %-12s %-10s %-10s\n", "scenario",
              "sats", "work", "brute_s", "indexed_s", "speedup", "par_s");
  std::printf("%-12s %-10zu %-12d %-12.3f %-12.3f %-10.2f %-10s\n", "kernel",
              fleet66.size(), mcSteps * kernelSamples, k66.brute.bestPassS,
              k66.indexed.bestPassS, spKernel66, "-");
  std::printf("%-12s %-10zu %-12d %-12.3f %-12.3f %-10.2f %-10s\n", "kernel",
              fleet1000.size(), 4 * kernelSamples, k1000.brute.bestPassS,
              k1000.indexed.bestPassS, spKernel1000, "-");
  std::printf("%-12s %-10zu %-12d %-12.3f %-12.3f %-10.2f %-10.3f\n", "mc",
              fleet66.size(), mcSteps * mc66Samples, mc66Brute.bestPassS,
              mc66Indexed.bestPassS, spMc66, mc66Par.bestPassS);
  std::printf("%-12s %-10zu %-12d %-12.3f %-12.3f %-10.2f %-10.3f\n", "mc",
              fleet1000.size(), 4 * mc1000Samples, mc1000Brute.bestPassS,
              mc1000Indexed.bestPassS, spMc1000, mc1000Par.bestPassS);
  std::printf("%-12s %-10zu %-12zu %-12.3f %-12.3f %-10.2f %-10.3f\n",
              "associate", fleet66.size(), users.size(),
              assoc66Brute.bestPassS, assoc66Serial.bestPassS, spAssoc66,
              assoc66Par.bestPassS);
  std::printf("%-12s %-10zu %-12zu %-12.3f %-12.3f %-10.2f %-10.3f\n",
              "associate", fleet1000.size(), users.size(),
              assoc1000BruteFullS, assoc1000Serial.bestPassS, spAssoc1000,
              assoc1000Par.bestPassS);
  std::printf("\n# kernel rows query identical pre-drawn samples (RNG "
              "excluded); index builds: %.1f ms @66, %.1f ms @1000, "
              "amortized by the compiled() LRU in production\n",
              k66.indexBuildS * 1e3, k1000.indexBuildS * 1e3);
  std::printf("# associate@1000 brute timed on a %zu-user subsample, "
              "scaled to %zu users\n",
              bruteSubsample, users.size());
  std::printf("# gates: kernel66 %s  kernel1000 %s  mc66 %s  mc1000 %s  "
              "assoc66 %s  assoc1000 %s  serial==parallel %s\n",
              kernel66Match ? "MATCH" : "MISMATCH",
              kernel1000Match ? "MATCH" : "MISMATCH",
              mc66Match ? "MATCH" : "MISMATCH",
              mc1000Match ? "MATCH" : "MISMATCH",
              assoc66Match ? "MATCH" : "MISMATCH",
              assoc1000Match ? "MATCH" : "MISMATCH",
              (mc66ThreadInvariant && mc1000ThreadInvariant &&
               assoc66ThreadInvariant && assoc1000ThreadInvariant)
                  ? "MATCH"
                  : "MISMATCH");

  const double wallS = nowS() - wallStartS;
  if (std::FILE* f = std::fopen(jsonPath, "w")) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"coverage_index\",\n"
        "  \"wall_seconds\": %.6f,\n"
        "  \"threads\": %d,\n"
        "  \"scale\": %.4f,\n"
        "  \"mc_steps\": %d,\n"
        "  \"mc66_samples\": %d,\n"
        "  \"kernel_samples\": %d,\n"
        "  \"assoc_users\": %zu,\n"
        "  \"kernel66_brute_s\": %.6f,\n"
        "  \"kernel66_indexed_s\": %.6f,\n"
        "  \"kernel66_index_build_s\": %.6f,\n"
        "  \"kernel1000_brute_s\": %.6f,\n"
        "  \"kernel1000_indexed_s\": %.6f,\n"
        "  \"kernel1000_index_build_s\": %.6f,\n"
        "  \"mc66_brute_s\": %.6f,\n"
        "  \"mc66_indexed_s\": %.6f,\n"
        "  \"mc66_parallel_s\": %.6f,\n"
        "  \"mc1000_brute_s\": %.6f,\n"
        "  \"mc1000_indexed_s\": %.6f,\n"
        "  \"mc1000_parallel_s\": %.6f,\n"
        "  \"assoc66_brute_s\": %.6f,\n"
        "  \"assoc66_indexed_s\": %.6f,\n"
        "  \"assoc66_parallel_s\": %.6f,\n"
        "  \"assoc1000_brute_full_s\": %.6f,\n"
        "  \"assoc1000_indexed_s\": %.6f,\n"
        "  \"assoc1000_parallel_s\": %.6f,\n"
        "  \"speedup_kernel66\": %.3f,\n"
        "  \"speedup_kernel1000\": %.3f,\n"
        "  \"speedup_mc66\": %.3f,\n"
        "  \"speedup_mc1000\": %.3f,\n"
        "  \"speedup_assoc66\": %.3f,\n"
        "  \"speedup_assoc1000\": %.3f,\n"
        "  \"kernel66_checksum\": \"%016llx\",\n"
        "  \"mc66_checksum\": \"%016llx\",\n"
        "  \"assoc66_checksum\": \"%016llx\",\n"
        "  \"checksums_match\": %s\n}\n",
        wallS, parThreads, scale, mcSteps, mc66Samples, kernelSamples,
        users.size(), k66.brute.bestPassS, k66.indexed.bestPassS,
        k66.indexBuildS, k1000.brute.bestPassS, k1000.indexed.bestPassS,
        k1000.indexBuildS,
        mc66Brute.bestPassS, mc66Indexed.bestPassS, mc66Par.bestPassS,
        mc1000Brute.bestPassS, mc1000Indexed.bestPassS, mc1000Par.bestPassS,
        assoc66Brute.bestPassS, assoc66Serial.bestPassS, assoc66Par.bestPassS,
        assoc1000BruteFullS, assoc1000Serial.bestPassS, assoc1000Par.bestPassS,
        spKernel66, spKernel1000, spMc66, spMc1000, spAssoc66, spAssoc1000,
        static_cast<unsigned long long>(k66.indexed.checksum),
        static_cast<unsigned long long>(mc66Indexed.checksum),
        static_cast<unsigned long long>(assoc66Serial.checksum),
        allMatch ? "true" : "false");
    std::fclose(f);
    std::printf("# json: %s\n", jsonPath);
  }
  return allMatch ? 0 : 1;
}
