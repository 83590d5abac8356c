// The std-based random source Rng replaced (test-only; openspace_spec).
// units-file: distribution parameters are in whatever units the caller samples.
//
// StdRng is Rng as it was: std::mt19937_64 with a fresh libstdc++
// distribution per call. Rng (geo/rng.hpp) runs its own engine and
// canonical draw and must yield the same stream bit for bit; the tests
// compare every method and the raw engine against this one.
#pragma once

#include <cstdint>
#include <random>

#include <openspace/geo/geodetic.hpp>

namespace openspace {

class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given rate (1/mean).
  double exponential(double rate);

  /// Normally distributed value; a zero stddev returns `mean` undrawn.
  double normal(double mean, double stddev);

  /// Bernoulli trial.
  bool chance(double probability);

  /// A point uniformly distributed on the unit sphere.
  Vec3 unitSphere();

  /// A geodetic surface point uniformly distributed by area, altitude 0.
  Geodetic surfacePoint();

  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace openspace
