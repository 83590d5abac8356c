// Indexed coverage estimators. Each estimator is bit-for-bit identical to
// its brute-force executable spec in the test-only openspace_spec library
// (tests/spec/coverage_legacy.cpp, openspace::legacy): the
// footprint index only prunes which satellites are *tested*, never what
// the test is, what order ties resolve in, or which RNG draws happen —
// property-tested in tests/test_footprint_index.cpp and hard-gated by
// bench/bench_coverage_index.cpp's checksums.
#include <openspace/coverage/coverage.hpp>

#include <algorithm>
#include <cmath>
#include <numeric>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/visibility.hpp>

#include "coverage_sampling.hpp"

namespace openspace {

using coverage_detail::chunkRng;
using coverage_detail::kSampleChunk;

double capAreaFraction(double halfAngleRad) {
  if (halfAngleRad < 0.0) {
    throw InvalidArgumentError("capAreaFraction: negative half-angle");
  }
  return (1.0 - std::cos(std::min(halfAngleRad, std::numbers::pi))) / 2.0;
}

CoverageEstimate worstCaseOverlapCoverage(const std::vector<OrbitalElements>& sats,
                                          double tSeconds,
                                          double minElevationRad) {
  CoverageEstimate est;
  if (sats.empty()) return est;

  const auto snap = SnapshotCache::global().at(sats, tSeconds);
  const auto footprints = FootprintIndex2::compiled(snap, minElevationRad);

  // Worst-case pairwise collapse (see tests/spec/coverage_legacy.cpp for
  // the brute spec): the band sweep replaces the O(N^2) inner scan with each satellite's
  // overlap candidates — ascending and superset-guaranteed, so taking the
  // first exact-predicate match over them reproduces the greedy matching's
  // "first overlapping j > i" choice exactly.
  std::vector<bool> absorbed(sats.size(), false);
  int effective = static_cast<int>(sats.size());
  std::vector<std::uint32_t> candidates;
  for (std::size_t i = 0; i < sats.size(); ++i) {
    if (absorbed[i]) continue;
    footprints->overlapCandidates(i, candidates);
    for (const std::uint32_t j : candidates) {
      if (j <= i) continue;
      if (absorbed[j]) continue;
      if (angleBetween(footprints->direction(i), footprints->direction(j)) <
          footprints->halfAngleRad(i) + footprints->halfAngleRad(j)) {
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
    meanCap += capAreaFraction(footprints->halfAngleRad(i));
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
  const auto footprints = FootprintIndex2::compiled(snap, minElevationRad);
  const std::uint64_t baseSeed = rng.engine()();
  // Built here, on the calling thread, so the table's own parallelFor gets
  // the whole pool before the fan-out (inside a worker it would run
  // serially).
  const CoverCertificates certs(*footprints);

  // Sample in ECI directly: coverage of the sphere is rotation-invariant.
  // The stream derivation and the per-sample draw sequence are identical
  // to the brute spec; only the covered-or-not evaluation is indexed.
  const std::size_t n = static_cast<std::size_t>(samples);
  std::vector<int> chunkCovered((n + kSampleChunk - 1) / kSampleChunk, 0);
  parallelFor(n, kSampleChunk, [&](std::size_t begin, std::size_t end) {
    Rng stream = chunkRng(baseSeed, begin / kSampleChunk);
    int covered = 0;
    for (std::size_t s = begin; s < end; ++s) {
      if (certs.anyCovers(stream.unitSphere())) ++covered;
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
    acc += monteCarloCoverage(sats, t, minElevationRad, samplesPerStep, rng)
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
  const auto footprints = FootprintIndex2::compiled(snap, minElevationRad);
  const std::uint64_t baseSeed = rng.engine()();
  // Built before the fan-out, as above.
  const CoverCertificates certs(*footprints);

  const std::size_t n = static_cast<std::size_t>(samples);
  std::vector<int> chunkCovered((n + kSampleChunk - 1) / kSampleChunk, 0);
  parallelFor(n, kSampleChunk, [&](std::size_t begin, std::size_t end) {
    Rng stream = chunkRng(baseSeed, begin / kSampleChunk);
    int covered = 0;
    for (std::size_t s = begin; s < end; ++s) {
      if (certs.countCovering(stream.unitSphere(), k) >= k) ++covered;
    }
    chunkCovered[begin / kSampleChunk] = covered;
  });
  const int covered =
      std::accumulate(chunkCovered.begin(), chunkCovered.end(), 0);
  return static_cast<double>(covered) / samples;
}

}  // namespace openspace
