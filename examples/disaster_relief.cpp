// Disaster relief (paper §1 motivation): a region's terrestrial backhaul is
// knocked out; satellite Internet is "often the only option for communities
// ... in areas affected by natural disasters". No single small provider
// covers the region continuously — but pooled under OpenSpace interfaces,
// their fleets restore near-continuous service, incrementally improving as
// more providers join.
//
//   $ ./disaster_relief
#include <cstdio>

#include <openspace/coverage/footprint_index.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/ephemeris.hpp>
#include <openspace/orbit/snapshot.hpp>
#include <openspace/orbit/walker.hpp>

namespace {

using namespace openspace;

/// Fraction of [t0, t1] during which at least one fleet satellite serves
/// the site, plus the mean gap length when nothing does.
struct ServiceStats {
  double availability = 0.0;
  int gaps = 0;
  double worstGapS = 0.0;
};

ServiceStats availabilityOf(const EphemerisService& eph, const Geodetic& site,
                            double t0, double t1) {
  const Vec3 siteEcef = geodeticToEcef(site);
  ServiceStats st;
  const double step = 10.0;
  double covered = 0.0;
  double gap = 0.0;
  bool inGap = false;
  for (double t = t0; t < t1; t += step) {
    const auto footprints = FootprintIndex2::compiled(
        SnapshotCache::global().at(eph, t), deg2rad(10.0));
    if (footprints->anyVisibleFrom(siteEcef)) {
      covered += step;
      if (inGap) {
        ++st.gaps;
        st.worstGapS = std::max(st.worstGapS, gap);
        inGap = false;
        gap = 0.0;
      }
    } else {
      inGap = true;
      gap += step;
    }
  }
  if (inGap) {
    ++st.gaps;
    st.worstGapS = std::max(st.worstGapS, gap);
  }
  st.availability = covered / (t1 - t0);
  return st;
}

}  // namespace

int main() {
  const Geodetic portAuPrince = Geodetic::fromDegrees(18.5944, -72.3074);
  const double window = 6.0 * 3600.0;  // six hours after the event

  std::printf("# Disaster scenario: terrestrial backhaul lost at Port-au-Prince\n");
  std::printf("# Each provider flies 8 satellites on independent random orbits.\n\n");
  std::printf("%-12s %-8s %-14s %-8s %-12s\n", "providers", "sats",
              "availability", "gaps", "worst_gap_s");

  // Incremental deployment: providers join one at a time, pooling fleets.
  EphemerisService pooled;
  Rng rng(2024);
  for (int k = 1; k <= 8; ++k) {
    for (const auto& el : makeRandomConstellation(8, km(780.0), rng)) {
      pooled.publish(static_cast<ProviderId>(k), el);
    }
    const ServiceStats st =
        availabilityOf(pooled, portAuPrince, 0.0, window);
    std::printf("%-12d %-8zu %-14.3f %-8d %-12.0f\n", k, pooled.size(),
                st.availability, st.gaps, st.worstGapS);
  }

  std::printf("\nOne 8-satellite provider leaves hours-long holes; pooling\n"
              "several small fleets through OpenSpace interfaces drives\n"
              "availability toward 1 without any single firm fielding a\n"
              "mega-constellation — the paper's incremental-deployment path.\n");
  return 0;
}
