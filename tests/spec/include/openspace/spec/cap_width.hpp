// Longitude half-width of a spherical cap by inverse trigonometry
// (test-only; openspace_spec).
//
// SphericalCapIndex (geo/spherical_index.hpp) registers each cap on a
// band with the cosine of this width, from the law of cosines, and never
// takes an acos. This is the angle form that the cosine form must agree
// with: the property tests check that it bounds sampled cap points and
// that the index's near-full windows land where it says they do.
#pragma once

namespace openspace {

/// Widest longitude half-width of the spherical cap centered at latitude
/// `centerLatRad` with angular radius `capRadiusRad`, over query latitudes
/// in [latLoRad, latHiRad]: an upper bound on |lon(point) - lon(center)|
/// for any cap point whose latitude falls in the range. Returns pi when the
/// cap wraps a pole over the range (every longitude qualifies).
double capLonHalfWidthRad(double centerLatRad, double capRadiusRad,
                          double latLoRad, double latHiRad);

}  // namespace openspace
