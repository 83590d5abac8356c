// Brute-force coverage estimators: the executable specification
// (test-only; openspace_spec).
//
// These are the pre-index implementations of the coverage estimators,
// preserved verbatim (same expressions, same iteration order, same RNG
// stream derivation) in openspace::legacy — the same pattern as
// routing_legacy.hpp: the optimized paths in coverage.hpp are
// property-tested bit-for-bit against these, and bench_coverage_index
// hard-gates indexed == brute checksums on every CI run.
//
// Every function here matches its coverage.hpp counterpart exactly:
// identical signature, identical result bits, identical throws. They test
// each surface sample / footprint pair against the whole fleet with no
// spatial pruning, which is what makes them slow — and obviously correct.
#pragma once

#include <vector>

#include <openspace/coverage/coverage.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/orbit/elements.hpp>

namespace openspace::legacy {

/// The paper's worst-case overlap model via the O(N^2) pairwise greedy
/// matching — the spec for the band-sweep in
/// openspace::worstCaseOverlapCoverage.
CoverageEstimate worstCaseOverlapCoverage(
    const std::vector<OrbitalElements>& sats, double tSeconds,
    double minElevationRad);

/// Monte-Carlo union coverage testing every sample against all satellites —
/// the spec for the indexed openspace::monteCarloCoverage.
CoverageEstimate monteCarloCoverage(const std::vector<OrbitalElements>& sats,
                                    double tSeconds, double minElevationRad,
                                    int samples, Rng& rng);

/// Time-averaged Monte-Carlo coverage over the brute estimator.
double timeAveragedCoverage(const std::vector<OrbitalElements>& sats, double t0S,
                            double t1S, int steps, double minElevationRad,
                            int samplesPerStep, Rng& rng);

/// k-fold coverage counting against all satellites per sample.
double kFoldCoverage(const std::vector<OrbitalElements>& sats, double tSeconds,
                     double minElevationRad, int k, int samples, Rng& rng);

}  // namespace openspace::legacy
