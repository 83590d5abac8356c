#include <openspace/spec/std_rng.hpp>

#include <algorithm>
#include <cmath>
#include <numbers>

#include <openspace/geo/error.hpp>

namespace openspace {

double StdRng::uniform(double lo, double hi) {
  if (!(lo <= hi)) throw InvalidArgumentError("StdRng::uniform: lo > hi");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t StdRng::uniformInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw InvalidArgumentError("StdRng::uniformInt: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double StdRng::exponential(double rate) {
  if (rate <= 0.0) {
    throw InvalidArgumentError("StdRng::exponential: rate must be > 0");
  }
  return std::exponential_distribution<double>(rate)(engine_);
}

double StdRng::normal(double mean, double stddev) {
  if (stddev < 0.0) {
    throw InvalidArgumentError("StdRng::normal: stddev must be >= 0");
  }
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

bool StdRng::chance(double probability) {
  if (!(probability >= 0.0 && probability <= 1.0)) {
    throw InvalidArgumentError("StdRng::chance: probability outside [0, 1]");
  }
  return std::bernoulli_distribution(probability)(engine_);
}

Vec3 StdRng::unitSphere() {
  const double z = uniform(-1.0, 1.0);
  const double phi = uniform(0.0, 2.0 * std::numbers::pi);
  const double r = std::sqrt(std::max(0.0, 1.0 - z * z));
  return {r * std::cos(phi), r * std::sin(phi), z};
}

Geodetic StdRng::surfacePoint() {
  const Vec3 p = unitSphere();
  return {std::asin(std::clamp(p.z, -1.0, 1.0)), std::atan2(p.y, p.x), 0.0};
}

}  // namespace openspace
