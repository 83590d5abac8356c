// The brute-force coverage estimators, kept verbatim as the executable
// spec of the indexed paths in src/coverage/coverage.cpp (see
// coverage_legacy.hpp).
#include <openspace/spec/coverage_legacy.hpp>

#include <algorithm>
#include <cmath>
#include <numeric>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/spec/footprint_index.hpp>

// The coverage module's private RNG stream derivation, shared verbatim with
// the indexed estimators (openspace_spec adds src/coverage to its private
// include path for exactly this header).
#include "coverage_sampling.hpp"

namespace openspace::legacy {

using coverage_detail::chunkRng;
using coverage_detail::kSampleChunk;

CoverageEstimate worstCaseOverlapCoverage(const std::vector<OrbitalElements>& sats,
                                          double tSeconds,
                                          double minElevationRad) {
  CoverageEstimate est;
  if (sats.empty()) return est;

  const auto snap = SnapshotCache::global().at(sats, tSeconds);
  const FootprintIndex footprints(*snap, minElevationRad);

  // Worst-case pairwise collapse: caps overlap when the central angle
  // between sub-points is below the sum of their half-angles; each
  // overlapping *pair* contributes the coverage of a single satellite
  // (greedy maximal matching over the overlap graph — a satellite is
  // absorbed into at most one pair, matching the paper's phrasing "two
  // satellites have completely overlapping ground coverage").
  std::vector<bool> absorbed(sats.size(), false);
  int effective = static_cast<int>(sats.size());
  for (std::size_t i = 0; i < sats.size(); ++i) {
    if (absorbed[i]) continue;
    for (std::size_t j = i + 1; j < sats.size(); ++j) {
      if (absorbed[j]) continue;
      if (angleBetween(footprints.direction(i), footprints.direction(j)) <
          footprints.halfAngleRad(i) + footprints.halfAngleRad(j)) {
        absorbed[i] = absorbed[j] = true;  // the pair counts as one cap
        --effective;
        break;
      }
    }
  }
  est.effectiveSatellites = effective;

  // Worst case: each component contributes a single cap (use the mean cap
  // fraction so heterogeneous altitudes average out).
  double meanCap = 0.0;
  for (std::size_t i = 0; i < sats.size(); ++i) {
    meanCap += capAreaFraction(footprints.halfAngleRad(i));
  }
  meanCap /= static_cast<double>(sats.size());
  est.coverageFraction = std::min(1.0, est.effectiveSatellites * meanCap);
  return est;
}

CoverageEstimate monteCarloCoverage(const std::vector<OrbitalElements>& sats,
                                    double tSeconds, double minElevationRad,
                                    int samples, Rng& rng) {
  if (samples <= 0) {
    throw InvalidArgumentError("monteCarloCoverage: samples must be > 0");
  }
  CoverageEstimate est;
  est.effectiveSatellites = static_cast<int>(sats.size());
  if (sats.empty()) return est;

  const auto snap = SnapshotCache::global().at(sats, tSeconds);
  const FootprintIndex footprints(*snap, minElevationRad);
  const std::uint64_t baseSeed = rng.engine()();

  // Sample in ECI directly: coverage of the sphere is rotation-invariant.
  const std::size_t n = static_cast<std::size_t>(samples);
  std::vector<int> chunkCovered((n + kSampleChunk - 1) / kSampleChunk, 0);
  parallelFor(n, kSampleChunk, [&](std::size_t begin, std::size_t end) {
    Rng stream = chunkRng(baseSeed, begin / kSampleChunk);
    int covered = 0;
    for (std::size_t s = begin; s < end; ++s) {
      if (footprints.anyCovers(stream.unitSphere())) ++covered;
    }
    chunkCovered[begin / kSampleChunk] = covered;
  });
  const int covered =
      std::accumulate(chunkCovered.begin(), chunkCovered.end(), 0);
  est.coverageFraction = static_cast<double>(covered) / samples;
  return est;
}

double timeAveragedCoverage(const std::vector<OrbitalElements>& sats, double t0S,
                            double t1S, int steps, double minElevationRad,
                            int samplesPerStep, Rng& rng) {
  if (steps <= 0) {
    throw InvalidArgumentError("timeAveragedCoverage: steps must be > 0");
  }
  if (t1S < t0S) throw InvalidArgumentError("timeAveragedCoverage: t1S < t0S");
  double acc = 0.0;
  for (int i = 0; i < steps; ++i) {
    const double t =
        (steps == 1) ? t0S : t0S + (t1S - t0S) * static_cast<double>(i) / (steps - 1);
    acc += legacy::monteCarloCoverage(sats, t, minElevationRad, samplesPerStep,
                                      rng)
               .coverageFraction;
  }
  return acc / steps;
}

double kFoldCoverage(const std::vector<OrbitalElements>& sats, double tSeconds,
                     double minElevationRad, int k, int samples, Rng& rng) {
  if (k <= 0) throw InvalidArgumentError("kFoldCoverage: k must be > 0");
  if (samples <= 0) {
    throw InvalidArgumentError("kFoldCoverage: samples must be > 0");
  }
  if (sats.empty()) return 0.0;

  const auto snap = SnapshotCache::global().at(sats, tSeconds);
  const FootprintIndex footprints(*snap, minElevationRad);
  const std::uint64_t baseSeed = rng.engine()();

  const std::size_t n = static_cast<std::size_t>(samples);
  std::vector<int> chunkCovered((n + kSampleChunk - 1) / kSampleChunk, 0);
  parallelFor(n, kSampleChunk, [&](std::size_t begin, std::size_t end) {
    Rng stream = chunkRng(baseSeed, begin / kSampleChunk);
    int covered = 0;
    for (std::size_t s = begin; s < end; ++s) {
      if (footprints.countCovering(stream.unitSphere(), k) >= k) ++covered;
    }
    chunkCovered[begin / kSampleChunk] = covered;
  });
  const int covered =
      std::accumulate(chunkCovered.begin(), chunkCovered.end(), 0);
  return static_cast<double>(covered) / samples;
}

}  // namespace openspace::legacy
