#include <openspace/geo/rng.hpp>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>

#include <openspace/geo/error.hpp>

namespace openspace {

namespace {

// MT19937-64 parameters (Matsumoto & Nishimura; std::mt19937_64); the
// state is Mt19937_64::kStateWords = 312 words.
constexpr unsigned kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;
constexpr std::uint64_t kInitMultiplier = 6364136223846793005ull;

/// One twist step: the upper bit of `hi`, the lower 31 bits of `lo`, mixed
/// into `far`. The matrix term is masked in, not branched on.
constexpr std::uint64_t twistWord(std::uint64_t hi, std::uint64_t lo,
                                  std::uint64_t far) noexcept {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(std::uint64_t seed) noexcept {
  state_[0] = seed;
  for (unsigned i = 1; i < kStateWords; ++i) {
    const std::uint64_t x = state_[i - 1];
    state_[i] = (x ^ (x >> 62)) * kInitMultiplier + i;
  }
}

void Mt19937_64::twist() noexcept {
  unsigned k = 0;
  for (; k < kStateWords - kM; ++k) {
    state_[k] = twistWord(state_[k], state_[k + 1], state_[k + kM]);
  }
  for (; k < kStateWords - 1; ++k) {
    state_[k] = twistWord(state_[k], state_[k + 1], state_[k + kM - kStateWords]);
  }
  state_[kStateWords - 1] = twistWord(state_[kStateWords - 1], state_[0], state_[kM - 1]);
  pos_ = 0;
}

void Mt19937_64::discard(std::uint64_t n) noexcept {
  while (n > kStateWords - pos_) {
    n -= kStateWords - pos_;
    twist();
  }
  pos_ += static_cast<unsigned>(n);
}

double Rng::uniform(double lo, double hi) {
  // A finite span also rules out infinite and NaN bounds.
  if (!(lo <= hi && std::isfinite(hi - lo))) {
    throw InvalidArgumentError(
        "Rng::uniform: bounds must be finite, lo <= hi, with a finite span");
  }
  // uniform_real_distribution's expression, in libstdc++'s order.
  return canonical() * (hi - lo) + lo;
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw InvalidArgumentError("Rng::uniformInt: lo > hi");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0 && std::isfinite(rate))) {
    throw InvalidArgumentError("Rng::exponential: rate must be finite and > 0");
  }
  return -std::log(1.0 - canonical()) / rate;
}

double Rng::normal(double mean, double stddev) {
  if (!(std::isfinite(mean) && std::isfinite(stddev) && stddev >= 0.0)) {
    throw InvalidArgumentError(
        "Rng::normal: mean must be finite and stddev finite and >= 0");
  }
  if (stddev == 0.0) return mean;
  // normal_distribution's Marsaglia polar method; a fresh distribution per
  // call, so the pair's first value (x * mult) is never used.
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
  do {
    x = 2.0 * canonical() - 1.0;
    y = 2.0 * canonical() - 1.0;
    r2 = x * x + y * y;
  } while (r2 > 1.0 || r2 == 0.0);
  const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
  return y * mult * stddev + mean;
}

bool Rng::chance(double probability) {
  if (!(probability >= 0.0 && probability <= 1.0)) {
    throw InvalidArgumentError("Rng::chance: probability outside [0, 1]");
  }
  return canonical() < probability;
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
