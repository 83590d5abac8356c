// Ephemeris sweep: drive the batch propagation kernel directly.
//
// Compiles an Iridium-like shell into a FleetEphemeris once, then walks a
// full orbital period with the cold batch evaluation positionsAt — the
// path ConstellationSnapshot runs for every timestep of the coverage,
// routing and handover experiments. Prints a per-sample visibility
// summary for one ground user.
//
//   $ ./ephemeris_sweep
#include <cstdio>
#include <vector>

#include <openspace/geo/units.hpp>
#include <openspace/orbit/propagation_batch.hpp>
#include <openspace/orbit/visibility.hpp>
#include <openspace/orbit/walker.hpp>

int main() {
  using namespace openspace;

  const auto elements = makeWalkerStar(iridiumConfig());
  const FleetEphemeris fleet(elements);
  std::printf("compiled %zu satellites into a FleetEphemeris\n\n",
              fleet.size());

  const Geodetic user = Geodetic::fromDegrees(64.1466, -21.9426);  // Reykjavik
  const double maskRad = deg2rad(10.0);
  const double periodS = elements.front().periodS();
  const double stepS = periodS / 12.0;

  std::vector<Vec3> eci, ecef;
  std::printf("%-10s %-10s %-14s\n", "t_min", "visible", "nearest_km");
  for (int s = 0; s <= 12; ++s) {
    const double t = s * stepS;
    fleet.positionsAt(t, eci, ecef);
    const Vec3 userEcef = geodeticToEcef(user);
    int visible = 0;
    double nearestM = -1.0;
    for (std::size_t i = 0; i < eci.size(); ++i) {
      if (elevationFrom(eci[i], user, t) < maskRad) continue;
      ++visible;
      const double rangeM = userEcef.distanceTo(ecef[i]);
      if (nearestM < 0.0 || rangeM < nearestM) nearestM = rangeM;
    }
    if (visible > 0) {
      std::printf("%-10.1f %-10d %-14.0f\n", t / 60.0, visible,
                  nearestM / 1000.0);
    } else {
      std::printf("%-10.1f %-10d %-14s\n", t / 60.0, visible, "-");
    }
  }

  std::printf("\none %zu-satellite step costs a few microseconds; the fleet\n"
              "compile above is paid once per constellation, not per step\n",
              fleet.size());
  return 0;
}
