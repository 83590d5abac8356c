// Propagation kernel benchmark: scalar spec vs batch kernel.
//
// Scenario: the 66-satellite Iridium-like shell propagated over a dense
// time grid — the inner loop of every snapshot, coverage, fig2 and
// temporal-routing experiment. Two strategies are timed per step:
//
//  * scalar    — per-satellite positionEci() + eciToEcef(), the executable
//                spec (what ConstellationSnapshot did before the kernel);
//  * batch     — FleetEphemeris::positionsAt(), cold Kepler solves over the
//                structure-of-arrays fleet compiled once up front (the path
//                ConstellationSnapshot runs).
//
// Besides the human-readable table, the bench writes a machine-readable
// JSON record to BENCH_propagation.json (or argv[1]). Hard gates (nonzero
// exit, so CI fails loudly rather than recording garbage):
//  * the batch checksum equals the scalar checksum (bit-for-bit contract);
//  * serial and parallel runs of the batch path are bit-identical.
#include <cstdio>
#include <cstring>
#include <vector>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/geodetic.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/walker.hpp>

#include "bench_timing.hpp"

namespace {

using namespace openspace;
using namespace openspace::bench;

constexpr int kSteps = 512;
constexpr double kStepS = 10.0;
constexpr int kPasses = 3;  // best-of to shrug off scheduler noise

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

std::uint64_t foldVecs(std::uint64_t h, const std::vector<Vec3>& vs) {
  for (const Vec3& v : vs) {
    h = fnv1a(h, bitsOf(v.x));
    h = fnv1a(h, bitsOf(v.y));
    h = fnv1a(h, bitsOf(v.z));
  }
  return h;
}

/// Microseconds per time step of a timed full sweep over the grid.
double usPerStep(const Timed& sweep) { return sweep.bestPassS / kSteps * 1e6; }

}  // namespace

int main(int argc, char** argv) {
  const auto fleet = makeWalkerStar(iridiumConfig());
  const double wallStartS = nowS();

  // Scalar spec: what the snapshot engine's inner loop used to be.
  const auto scalarPass = [&] {
    std::uint64_t h = 0xCBF29CE484222325ull;
    std::vector<Vec3> eci(fleet.size()), ecef(fleet.size());
    for (int s = 0; s < kSteps; ++s) {
      const double t = s * kStepS;
      for (std::size_t i = 0; i < fleet.size(); ++i) {
        eci[i] = positionEci(fleet[i], t);
        ecef[i] = eciToEcef(eci[i], t);
      }
      h = foldVecs(foldVecs(h, eci), ecef);
    }
    return h;
  };

  const double compileStartS = nowS();
  const FleetEphemeris batch(fleet);
  const double compileUs = (nowS() - compileStartS) * 1e6;

  const auto batchPass = [&] {
    std::uint64_t h = 0xCBF29CE484222325ull;
    std::vector<Vec3> eci, ecef;
    for (int s = 0; s < kSteps; ++s) {
      batch.positionsAt(s * kStepS, eci, ecef);
      h = foldVecs(foldVecs(h, eci), ecef);
    }
    return h;
  };

  // Timed runs use the ambient worker count (OPENSPACE_THREADS in CI).
  const int poolThreads = parallelThreadCount();
  const Timed scalar = timeIt(scalarPass, kPasses);
  const Timed cold = timeIt(batchPass, kPasses);

  // Determinism gate: serial vs forced-4-thread checksums.
  setParallelThreadCount(1);
  const std::uint64_t coldSerial = batchPass();
  setParallelThreadCount(4);
  const std::uint64_t coldParallel = batchPass();
  setParallelThreadCount(poolThreads);

  const bool coldMatchesScalar = cold.checksum == scalar.checksum;
  const bool coldThreadInvariant =
      coldSerial == coldParallel && coldSerial == cold.checksum;
  const bool allMatch = coldMatchesScalar && coldThreadInvariant;

  const double speedupCold = usPerStep(scalar) / usPerStep(cold);

  std::printf("# Propagation kernel: %zu satellites, %d steps of %.0f s "
              "(threads=%d, best of %d passes)\n\n",
              fleet.size(), kSteps, kStepS, poolThreads, kPasses);
  std::printf("%-10s %-14s %-10s %-18s\n", "path", "us_per_step", "speedup",
              "checksum");
  std::printf("%-10s %-14.2f %-10s %016llx\n", "scalar", usPerStep(scalar),
              "1.00x", static_cast<unsigned long long>(scalar.checksum));
  std::printf("%-10s %-14.2f %-10.2f %016llx\n", "batch", usPerStep(cold),
              speedupCold, static_cast<unsigned long long>(cold.checksum));
  std::printf("\n# fleet compile: %.1f us (amortized across every step)\n",
              compileUs);
  std::printf("# gates: batch==scalar %s  batch serial==parallel %s\n",
              coldMatchesScalar ? "MATCH" : "MISMATCH",
              coldThreadInvariant ? "MATCH" : "MISMATCH");

  const double wallS = nowS() - wallStartS;
  const char* jsonPath = argc > 1 ? argv[1] : "BENCH_propagation.json";
  if (std::FILE* f = std::fopen(jsonPath, "w")) {
    std::fprintf(f,
                 "{\n  \"bench\": \"propagation\",\n"
                 "  \"wall_seconds\": %.6f,\n"
                 "  \"threads\": %d,\n"
                 "  \"satellites\": %zu,\n"
                 "  \"steps\": %d,\n"
                 "  \"step_seconds\": %.1f,\n"
                 "  \"compile_us\": %.3f,\n"
                 "  \"scalar_us_per_step\": %.3f,\n"
                 "  \"batch_us_per_step\": %.3f,\n"
                 "  \"speedup_batch\": %.3f,\n"
                 "  \"scalar_checksum\": \"%016llx\",\n"
                 "  \"batch_checksum\": \"%016llx\",\n"
                 "  \"batch_matches_scalar\": %s,\n"
                 "  \"checksums_match\": %s\n}\n",
                 wallS, poolThreads, fleet.size(), kSteps, kStepS, compileUs,
                 usPerStep(scalar), usPerStep(cold), speedupCold,
                 static_cast<unsigned long long>(scalar.checksum),
                 static_cast<unsigned long long>(cold.checksum),
                 coldMatchesScalar ? "true" : "false",
                 allMatch ? "true" : "false");
    std::fclose(f);
    std::printf("# json: %s\n", jsonPath);
  }
  return allMatch ? 0 : 1;
}
