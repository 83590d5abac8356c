#include <openspace/geo/rng.hpp>

#include <algorithm>
#include <cmath>
#include <numbers>

#include <openspace/geo/error.hpp>

namespace openspace {

double Rng::uniform(double lo, double hi) {
  if (!(lo <= hi)) throw InvalidArgumentError("Rng::uniform: lo > hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw InvalidArgumentError("Rng::uniformInt: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw InvalidArgumentError("Rng::exponential: rate must be > 0");
  return std::exponential_distribution<double>(rate)(engine_);
}

double Rng::normal(double mean, double stddev) {
  if (stddev < 0.0) throw InvalidArgumentError("Rng::normal: stddev must be >= 0");
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

bool Rng::chance(double probability) {
  if (!(probability >= 0.0 && probability <= 1.0)) {
    throw InvalidArgumentError("Rng::chance: probability outside [0, 1]");
  }
  return std::bernoulli_distribution(probability)(engine_);
}

Vec3 Rng::unitSphere() {
  // Marsaglia-style: z uniform in [-1,1], azimuth uniform. Area-uniform.
  const double z = uniform(-1.0, 1.0);
  const double phi = uniform(0.0, 2.0 * std::numbers::pi);
  const double r = std::sqrt(std::max(0.0, 1.0 - z * z));
  return {r * std::cos(phi), r * std::sin(phi), z};
}

Geodetic Rng::surfacePoint() {
  const Vec3 p = unitSphere();
  return {std::asin(std::clamp(p.z, -1.0, 1.0)), std::atan2(p.y, p.x), 0.0};
}

}  // namespace openspace
