// User-base modeling (paper §5(1)).
//
// "Defining these parameters requires ... modelling a potential user base
// along with potential user traffic patterns." PopulationModel provides
// the synthetic user base: a catalog of major population centers with
// weights, area-weighted rural sampling, a diurnal demand curve, and the
// demand-weighted coverage metric (what fraction of *demand*, not area,
// the constellation serves — the commercially relevant number, given that
// satellite Internet demand skews to places terrestrial networks skip).
#pragma once

#include <string>
#include <vector>

#include <openspace/geo/rng.hpp>
#include <openspace/orbit/elements.hpp>

namespace openspace {

/// A population center.
struct PopulationCenter {
  std::string name;
  Geodetic location;
  double weightMillions = 0.0;  ///< Relative demand weight (~population).
};

/// A sampled user with a demand weight.
struct SampledUser {
  Geodetic location;
  double weight = 1.0;
};

/// World population model mixing urban centers and diffuse rural demand.
class PopulationModel {
 public:
  /// `ruralFraction` of total demand is spread area-uniformly over land-ish
  /// latitudes (|lat| < 65 deg); the rest concentrates at the centers.
  /// Throws InvalidArgumentError if centers is empty or ruralFraction is
  /// outside [0, 1].
  PopulationModel(std::vector<PopulationCenter> centers, double ruralFraction);

  /// Draw `n` users; city users scatter within ~200 km of their center.
  /// Deterministic given the Rng.
  std::vector<SampledUser> sampleUsers(int n, Rng& rng) const;

  /// Fraction of total demand weight within sight (>= minElevationRad) of
  /// at least one satellite at time t, using `samples` draws.
  double demandWeightedCoverage(const std::vector<OrbitalElements>& sats,
                                double tSeconds, double minElevationRad,
                                int samples, Rng& rng) const;

  const std::vector<PopulationCenter>& centers() const noexcept {
    return centers_;
  }
  double totalWeightMillions() const noexcept { return totalWeight_; }

 private:
  /// What sampleUsers reads of a center, with its per-center constants
  /// computed once.
  struct CenterDraw {
    double latitudeRad;
    double longitudeRad;
    double weightMillions;
    double lonScatterRad;  ///< Scatter radius / max(0.2, cos(latitude)).
    double userWeight;     ///< 1 + weightMillions / 5.
  };

  std::vector<PopulationCenter> centers_;
  std::vector<CenterDraw> draws_;
  double ruralFraction_;
  double totalWeight_ = 0.0;
};

/// Diurnal demand multiplier in [0.3, 1.0]: demand peaks in the local
/// evening (20:00) and troughs in the morning (08:00). `utcSeconds` is time
/// of day; longitude shifts local time.
double diurnalDemandFactor(double utcSeconds, double longitudeRad);

/// A default 24-center world model (large cities across all continents,
/// weights loosely proportional to metro population) with 30% rural demand
/// — enough structure for demand-weighted studies without shipping a
/// population raster.
PopulationModel defaultWorldPopulation();

}  // namespace openspace
