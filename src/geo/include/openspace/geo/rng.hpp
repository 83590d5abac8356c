// Deterministic random number generation.
// units-file: distribution parameters are in whatever units the caller samples.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so that simulations are exactly reproducible; no component touches
// global random state.
//
// Rng yields the stream libstdc++'s std::mt19937_64 and its distributions
// yield, bit for bit, but from its own code (DESIGN §6 "The random
// stream"):
//  * Mt19937_64 seeds and tempers exactly as std::mt19937_64 does; its
//    twist picks the matrix term with a mask, (0 - (y & 1)) & A, where
//    libstdc++ branches on a random bit.
//  * canonical() is std::generate_canonical<double, 53> on that engine:
//    the 64-bit draw converted as two exact 32-bit halves whose sum rounds
//    once, scaled by 2^-64 and clamped below 1.
//  * uniform, chance, exponential and normal use libstdc++'s expressions
//    on that draw; uniformInt runs std::uniform_int_distribution over the
//    engine.
// The std-based original is kept as StdRng in the test-only openspace_spec
// library (openspace/spec/std_rng.hpp); the tests compare every method
// against it.
#pragma once

#include <cstdint>

#include <openspace/geo/geodetic.hpp>

namespace openspace {

/// MT19937-64: std::mt19937_64's seeding and output, bit for bit, with a
/// branchless twist. A UniformRandomBitGenerator, so std distributions run
/// on it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt19937_64(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (pos_ == kStateWords) twist();
    std::uint64_t z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    z ^= z >> 43;
    return z;
  }

  /// Advance by `n` draws (what n calls would do, without tempering them).
  void discard(std::uint64_t n) noexcept;

 private:
  static constexpr unsigned kStateWords = 312;

  void twist() noexcept;

  std::uint64_t state_[kStateWords];
  unsigned pos_ = kStateWords;
};

/// Seeded pseudo-random source with the handful of distributions the
/// simulator needs. Every method throws InvalidArgumentError on a
/// non-finite or out-of-range parameter instead of returning NaN.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// std::generate_canonical<double, 53> of the 64-bit draw `bits`: the
  /// nearest double to bits * 2^-64, or the largest double below 1 where
  /// that rounds up to 1.
  static double toCanonical(std::uint64_t bits) noexcept {
    // Both halves convert exactly; their sum is the exact value of `bits`,
    // rounded once. Scaling by a power of two is exact.
    const double d =
        (static_cast<double>(static_cast<std::uint32_t>(bits >> 32)) * 0x1p32 +
         static_cast<double>(static_cast<std::uint32_t>(bits))) *
        0x1p-64;
    return d < 1.0 ? d : 0x1.fffffffffffffp-1;
  }

  /// Uniform double in [0, 1): one engine draw.
  double canonical() noexcept { return toCanonical(engine_()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given rate (1/mean).
  double exponential(double rate);

  /// Normally distributed value (one Marsaglia polar pair per call; the
  /// second value of the pair is discarded). A zero stddev returns `mean`
  /// without drawing.
  double normal(double mean, double stddev);

  /// Bernoulli trial.
  bool chance(double probability);

  /// A point uniformly distributed on the unit sphere.
  Vec3 unitSphere();

  /// A geodetic surface point uniformly distributed by area (not by
  /// lat/lon grid), altitude 0.
  Geodetic surfacePoint();

  /// Underlying engine: the raw 64-bit stream, for std distributions not
  /// wrapped here.
  Mt19937_64& engine() noexcept { return engine_; }

 private:
  Mt19937_64 engine_;
};

}  // namespace openspace
