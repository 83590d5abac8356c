#include <openspace/econ/incentives.hpp>

#include <algorithm>
#include <cmath>
#include <numeric>

#include <openspace/geo/error.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/snapshot.hpp>

namespace openspace {

bool CoalitionAnalysis::selfEnforcing() const {
  return std::all_of(members.begin(), members.end(), [](const MemberIncentive& m) {
    return m.requiredTransferUsd <= 1e-9;
  });
}

namespace {

/// Coverage of the union of several fleets against a fixed sample set of
/// surface points (shared points make subset coverages comparable and the
/// Shapley marginals non-negative).
class CoverageOracle {
 public:
  CoverageOracle(const std::vector<CoalitionMember>& members, double tSeconds,
                 double minElevationRad, int samples, Rng& rng)
      : memberSeen_(members.size()) {
    // Precompute, per member, which sample points it covers.
    std::vector<GroundObserver> points;
    points.reserve(static_cast<std::size_t>(samples));
    for (int i = 0; i < samples; ++i) {
      points.emplace_back(rng.unitSphere() * wgs84::kMeanRadiusM);
    }
    const ElevationMask mask = ElevationMask::of(minElevationRad);
    for (std::size_t m = 0; m < members.size(); ++m) {
      const auto snap =
          SnapshotCache::global().at(members[m].fleet, tSeconds);
      const std::vector<Vec3>& eci = snap->eci();
      memberSeen_[m].assign(points.size(), false);
      for (std::size_t p = 0; p < points.size(); ++p) {
        for (const Vec3& sat : eci) {
          if (points[p].sees(sat, mask)) {
            memberSeen_[m][p] = true;
            break;
          }
        }
      }
    }
    samples_ = points.size();
  }

  /// Coverage fraction of the union over `subset` (member indices).
  double coverage(const std::vector<std::size_t>& subset) const {
    if (subset.empty() || samples_ == 0) return 0.0;
    std::size_t covered = 0;
    for (std::size_t p = 0; p < samples_; ++p) {
      for (const std::size_t m : subset) {
        if (memberSeen_[m][p]) {
          ++covered;
          break;
        }
      }
    }
    return static_cast<double>(covered) / static_cast<double>(samples_);
  }

  double single(std::size_t m) const { return coverage({m}); }

 private:
  std::vector<std::vector<bool>> memberSeen_;
  std::size_t samples_ = 0;
};

}  // namespace

CoalitionAnalysis analyzeCoalition(const std::vector<CoalitionMember>& members,
                                   double marketUsd, double tSeconds,
                                   double minElevationRad, int coverageSamples,
                                   int shapleySamples, Rng& rng,
                                   double qualityExponent) {
  if (members.empty()) {
    throw InvalidArgumentError("analyzeCoalition: empty coalition");
  }
  if (marketUsd <= 0.0 || coverageSamples <= 0 || shapleySamples <= 0) {
    throw InvalidArgumentError("analyzeCoalition: non-positive parameters");
  }
  if (qualityExponent < 1.0) {
    throw InvalidArgumentError(
        "analyzeCoalition: quality exponent must be >= 1");
  }
  const auto revenue = [&](double coverage) {
    return marketUsd * std::pow(coverage, qualityExponent);
  };

  const CoverageOracle oracle(members, tSeconds, minElevationRad,
                              coverageSamples, rng);
  const std::size_t n = members.size();

  CoalitionAnalysis out;
  std::vector<std::size_t> everyone(n);
  std::iota(everyone.begin(), everyone.end(), 0u);
  out.coalitionCoverage = oracle.coverage(everyone);
  out.coalitionRevenueUsd = revenue(out.coalitionCoverage);

  // Sampled Shapley: average marginal coverage contribution over random
  // join orders.
  std::vector<double> marginal(n, 0.0);
  std::vector<std::size_t> order(everyone);
  for (int s = 0; s < shapleySamples; ++s) {
    // Fisher-Yates with the shared Rng.
    for (std::size_t i = n; i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    std::vector<std::size_t> prefix;
    double prev = 0.0;
    for (const std::size_t m : order) {
      prefix.push_back(m);
      const double cov = oracle.coverage(prefix);
      marginal[m] += cov - prev;
      prev = cov;
    }
  }
  double totalMarginal = 0.0;
  for (double& v : marginal) {
    v /= shapleySamples;
    totalMarginal += v;
  }

  double bestSingle = 0.0;
  for (std::size_t m = 0; m < n; ++m) {
    MemberIncentive mi;
    mi.name = members[m].name;
    mi.standaloneCoverage = oracle.single(m);
    mi.standaloneRevenueUsd = revenue(mi.standaloneCoverage);
    mi.shapleyShare =
        (totalMarginal > 0.0) ? marginal[m] / totalMarginal : 1.0 / static_cast<double>(n);
    mi.coalitionRevenueUsd = mi.shapleyShare * out.coalitionRevenueUsd;
    mi.requiredTransferUsd =
        std::max(0.0, mi.standaloneRevenueUsd - mi.coalitionRevenueUsd);
    out.sumStandaloneRevenueUsd += mi.standaloneRevenueUsd;
    bestSingle = std::max(bestSingle, mi.standaloneCoverage);
    out.members.push_back(std::move(mi));
  }
  out.coverageSynergy = out.coalitionCoverage - bestSingle;
  return out;
}

}  // namespace openspace
