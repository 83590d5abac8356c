// Unit tests for the population/demand model (§5(1)) and demand-weighted
// coverage.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/rng.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/walker.hpp>
#include <openspace/coverage/coverage.hpp>
#include <openspace/sim/population.hpp>

namespace openspace {
namespace {

TEST(Population, DefaultModelIsSane) {
  const PopulationModel model = defaultWorldPopulation();
  EXPECT_GE(model.centers().size(), 20u);
  EXPECT_GT(model.totalWeightMillions(), 300.0);
}

TEST(Population, ConstructionValidation) {
  EXPECT_THROW(PopulationModel({}, 0.3), InvalidArgumentError);
  std::vector<PopulationCenter> centers = {
      {"x", Geodetic::fromDegrees(0, 0), 1.0}};
  EXPECT_THROW(PopulationModel(centers, -0.1), InvalidArgumentError);
  EXPECT_THROW(PopulationModel(centers, 1.1), InvalidArgumentError);
  std::vector<PopulationCenter> bad = {{"x", Geodetic::fromDegrees(0, 0), 0.0}};
  EXPECT_THROW(PopulationModel(bad, 0.3), InvalidArgumentError);
}

TEST(Population, NanRuralFractionThrows) {
  const std::vector<PopulationCenter> centers = {
      {"x", Geodetic::fromDegrees(0, 0), 1.0}};
  EXPECT_THROW(PopulationModel(centers, std::numeric_limits<double>::quiet_NaN()),
               InvalidArgumentError);
}

TEST(Population, SamplingIsDeterministicAndBounded) {
  const PopulationModel model = defaultWorldPopulation();
  Rng a(5), b(5);
  const auto ua = model.sampleUsers(500, a);
  const auto ub = model.sampleUsers(500, b);
  ASSERT_EQ(ua.size(), 500u);
  for (std::size_t i = 0; i < ua.size(); ++i) {
    EXPECT_DOUBLE_EQ(ua[i].location.latitudeRad, ub[i].location.latitudeRad);
    EXPECT_GE(ua[i].weight, 1.0);
    EXPECT_LE(std::abs(ua[i].location.latitudeRad), std::numbers::pi / 2);
  }
  Rng c(5);
  EXPECT_TRUE(model.sampleUsers(0, c).empty());
  EXPECT_THROW(model.sampleUsers(-1, c), InvalidArgumentError);
}

// Recorded on the std::mt19937_64-based stream, before Rng got its own
// engine and canonical draw: 1,000 users from the default centres, every
// latitude, longitude and weight bit, at three rural fractions.
TEST(Population, SampledUsersArePinned) {
  const struct {
    double ruralFraction;
    std::uint64_t digest;
  } pins[] = {{0.0, 0xcf80f1d20ad5b8d5ull},
              {0.3, 0x75b17371962f0531ull},
              {1.0, 0x5e41b6472298ff1aull}};
  const PopulationModel world = defaultWorldPopulation();
  for (const auto& p : pins) {
    const PopulationModel model(world.centers(), p.ruralFraction);
    Rng rng(2024);
    std::uint64_t h = kFnvOffsetBasis;
    for (const SampledUser& u : model.sampleUsers(1'000, rng)) {
      h = fnv1a(h, bitsOf(u.location.latitudeRad));
      h = fnv1a(h, bitsOf(u.location.longitudeRad));
      h = fnv1a(h, bitsOf(u.location.altitudeM));
      h = fnv1a(h, bitsOf(u.weight));
    }
    EXPECT_EQ(h, p.digest) << "rural fraction " << p.ruralFraction;
  }
}

TEST(Population, UrbanSamplesClusterNearCenters) {
  // With zero rural fraction every sample lies within ~1000 km of a center.
  std::vector<PopulationCenter> centers = {
      {"tokyo", Geodetic::fromDegrees(35.68, 139.69), 10.0},
      {"paris", Geodetic::fromDegrees(48.86, 2.35), 10.0}};
  const PopulationModel model(centers, 0.0);
  Rng rng(9);
  for (const auto& u : model.sampleUsers(300, rng)) {
    double nearest = 1e18;
    for (const auto& c : centers) {
      nearest = std::min(nearest, greatCircleDistanceM(u.location, c.location));
    }
    EXPECT_LT(nearest, 1'200e3);
  }
}

TEST(Population, RuralSamplesSpreadGlobally) {
  std::vector<PopulationCenter> centers = {
      {"tokyo", Geodetic::fromDegrees(35.68, 139.69), 10.0}};
  const PopulationModel model(centers, 1.0);  // all rural
  Rng rng(11);
  const auto users = model.sampleUsers(2000, rng);
  int west = 0;
  for (const auto& u : users) {
    EXPECT_LE(std::abs(u.location.latitudeRad), deg2rad(65.0));
    if (u.location.longitudeRad < 0) ++west;
  }
  // Roughly half the globe is west of Greenwich.
  EXPECT_NEAR(static_cast<double>(west) / 2000.0, 0.5, 0.06);
}

TEST(Population, DemandCoverageOfGlobalFleetIsNearTotal) {
  const PopulationModel model = defaultWorldPopulation();
  const auto sats = makeWalkerStar(iridiumConfig());
  Rng rng(13);
  const double cov =
      model.demandWeightedCoverage(sats, 0.0, deg2rad(10.0), 2000, rng);
  EXPECT_GT(cov, 0.97);
  Rng rng2(13);
  EXPECT_DOUBLE_EQ(model.demandWeightedCoverage({}, 0.0, 0.1, 100, rng2), 0.0);
  EXPECT_THROW(model.demandWeightedCoverage(sats, 0.0, 0.1, 0, rng2),
               InvalidArgumentError);
}

TEST(Population, EquatorialShellFavorsDemandOverArea) {
  // A low-inclination shell misses the poles (no demand there) but covers
  // the urban belt: demand-weighted coverage should exceed area coverage.
  WalkerConfig wc;
  wc.totalSatellites = 36;
  wc.planes = 6;
  wc.phasing = 1;
  wc.altitudeM = km(780.0);
  wc.inclinationRad = deg2rad(35.0);
  const auto sats = makeWalkerDelta(wc);
  const PopulationModel model = defaultWorldPopulation();
  Rng a(15), b(15);
  const double demandCov =
      model.demandWeightedCoverage(sats, 0.0, deg2rad(10.0), 3000, a);
  const double areaCov =
      monteCarloCoverage(sats, 0.0, deg2rad(10.0), 3000, b).coverageFraction;
  EXPECT_GT(demandCov, areaCov);
}

TEST(Diurnal, PeaksEveningTroughsMorning) {
  const double lon = 0.0;
  const double peak = diurnalDemandFactor(20.0 * 3600.0, lon);
  const double trough = diurnalDemandFactor(8.0 * 3600.0, lon);
  EXPECT_NEAR(peak, 1.0, 1e-9);
  EXPECT_NEAR(trough, 0.3, 1e-9);
  // Bounded everywhere.
  for (double t = 0.0; t < 86'400.0; t += 3'600.0) {
    const double f = diurnalDemandFactor(t, lon);
    EXPECT_GE(f, 0.3 - 1e-9);
    EXPECT_LE(f, 1.0 + 1e-9);
  }
}

TEST(Diurnal, LongitudeShiftsLocalTime) {
  // 90 deg east is 6 hours ahead: UTC 14:00 there is local 20:00 (peak).
  const double utc = 14.0 * 3600.0;
  EXPECT_NEAR(diurnalDemandFactor(utc, deg2rad(90.0)), 1.0, 1e-9);
  EXPECT_LT(diurnalDemandFactor(utc, 0.0),
            diurnalDemandFactor(utc, deg2rad(90.0)));
  // Periodic in 24 h.
  EXPECT_NEAR(diurnalDemandFactor(5'000.0, 0.3),
              diurnalDemandFactor(5'000.0 + 86'400.0, 0.3), 1e-9);
}

}  // namespace
}  // namespace openspace
