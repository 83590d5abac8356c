// The batch propagation kernel.
//
// Correctness contract: the cold-start path performs the exact
// floating-point operations of the scalar spec (orbit/elements.cpp
// `propagate`) in the same order — the precomputed terms are produced by
// the same expressions the scalar path evaluates per call, and the
// per-step arithmetic mirrors it token for token. Any change here must
// keep tests/test_propagation_batch.cpp's bit-for-bit pins green.
#include <openspace/orbit/propagation_batch.hpp>

#include <cmath>
#include <numbers>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/snapshot.hpp>

namespace openspace {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Chunk of the satellite range per parallelFor task. Matches the snapshot
/// engine's decomposition; fixed so results are thread-count independent.
constexpr std::size_t kBatchChunk = 64;

/// Newton iteration on f(E) = E - e sin E - m from `guess` (the scalar
/// spec's inner loop): stop on |step| < 1e-14 (converged) or after 20
/// iterations. Returns whether the tolerance was reached; `guess` holds
/// the final iterate either way.
bool newtonKepler(double reducedMeanRad, double ecc, double& guess) noexcept {
  for (int i = 0; i < 20; ++i) {
    const double f = guess - ecc * std::sin(guess) - reducedMeanRad;
    const double fp = 1.0 - ecc * std::cos(guess);
    const double step = f / fp;
    guess -= step;
    if (std::abs(step) < 1e-14) return true;
  }
  return false;
}

/// Warm-started Kepler solve. `stateMeanRad`/`stateEccentricRad` carry the
/// previous step's reduced anomalies; when `primed` the Newton guess is the
/// previous eccentric anomaly advanced by the mean-anomaly delta (1-2
/// iterations for near-circular LEO). A warm start that misses the
/// convergence tolerance within the cap falls back to the scalar spec's
/// cold solve (solveKeplerReduced, bisection-safeguarded), so accuracy
/// never depends on the previous state being close.
double solveKeplerWarm(double meanAnomalyRad, double ecc, bool primed,
                       double& stateMeanRad, double& stateEccentricRad) {
  if (ecc == 0.0) return meanAnomalyRad;
  const double reducedRad = std::remainder(meanAnomalyRad, kTwoPi);
  double guess = 0.0;
  bool solved = false;
  if (primed) {
    guess = stateEccentricRad + std::remainder(reducedRad - stateMeanRad, kTwoPi);
    solved = newtonKepler(reducedRad, ecc, guess);
  }
  if (!solved) guess = solveKeplerReduced(reducedRad, ecc);
  stateMeanRad = reducedRad;
  stateEccentricRad = guess;
  return guess + (meanAnomalyRad - reducedRad);
}

/// The time-invariant terms of one orbit's perifocal position: the y_P
/// coefficient b = a * sqrt(1 - e^2) and the perifocal -> ECI rotation
/// Rz(raan) * Rx(incl) * Rz(argPerigee), stored as its two used columns
/// P = (r11, r21, r31) and Q = (r12, r22, r32). The one place both
/// FleetEphemeris and SatelliteSweep compile an orbit.
struct PerifocalTerms {
  double semiMinorAxisM;
  double p1, p2, p3;  // units: rotation-matrix entries
  double q1, q2, q3;  // units: rotation-matrix entries
};

PerifocalTerms perifocalTerms(const OrbitalElements& el) {
  const double ecc = el.eccentricity;
  const double cO = std::cos(el.raanRad), sO = std::sin(el.raanRad);
  const double cI = std::cos(el.inclinationRad), sI = std::sin(el.inclinationRad);
  const double cW = std::cos(el.argPerigeeRad), sW = std::sin(el.argPerigeeRad);
  // The scalar path evaluates yP = a * sqrt(1 - e^2) * sinE left to
  // right, so a * sqrt(1 - e^2) is exactly the term it forms first; the
  // rotation entries are its r11..r32 expressions.
  return {el.semiMajorAxisM * std::sqrt(1.0 - ecc * ecc),
          cO * cW - sO * sW * cI,
          sO * cW + cO * sW * cI,
          sW * sI,
          -cO * sW - sO * cW * cI,
          -sO * sW + cO * cW * cI,
          cW * sI};
}

/// ECI position at the eccentric anomaly with cosine `cosE` and sine
/// `sinE` of the orbit with semi-major axis `a`, eccentricity `ecc` and
/// terms `t`: operation for operation the scalar spec's perifocal block.
/// Callers take the sine and cosine first, so the terms are read after
/// the calls rather than held across them.
inline Vec3 perifocalEci(double cosE, double sinE, double a, double ecc,
                         const PerifocalTerms& t) noexcept {
  const double xP = a * (cosE - ecc);
  const double yP = t.semiMinorAxisM * sinE;
  return {t.p1 * xP + t.q1 * yP, t.p2 * xP + t.q2 * yP, t.p3 * xP + t.q3 * yP};
}

}  // namespace

FleetEphemeris::FleetEphemeris(const std::vector<OrbitalElements>& elements)
    : count_(elements.size()) {
  semiMajorAxisM_.reserve(count_);
  eccentricity_.reserve(count_);
  meanMotionRadPerS_.reserve(count_);
  meanAnomalyAtEpochRad_.reserve(count_);
  semiMinorAxisM_.reserve(count_);
  p1_.reserve(count_);
  p2_.reserve(count_);
  p3_.reserve(count_);
  q1_.reserve(count_);
  q2_.reserve(count_);
  q3_.reserve(count_);
  for (const OrbitalElements& el : elements) {
    requireValidElements(el);
    semiMajorAxisM_.push_back(el.semiMajorAxisM);
    eccentricity_.push_back(el.eccentricity);
    meanMotionRadPerS_.push_back(el.meanMotionRadPerS());
    meanAnomalyAtEpochRad_.push_back(el.meanAnomalyAtEpochRad);
    const PerifocalTerms t = perifocalTerms(el);
    semiMinorAxisM_.push_back(t.semiMinorAxisM);
    p1_.push_back(t.p1);
    p2_.push_back(t.p2);
    p3_.push_back(t.p3);
    q1_.push_back(t.q1);
    q2_.push_back(t.q2);
    q3_.push_back(t.q3);
  }
}

void FleetEphemeris::positionsAt(double tSeconds, std::vector<Vec3>& outEci,
                                 std::vector<Vec3>& outEcef) const {
  outEci.resize(count_);
  outEcef.resize(count_);
  // Earth rotation angle hoisted once per step; the per-satellite rotation
  // below is the body of eciToEcef verbatim.
  const double ang = -wgs84::kEarthRotationRadPerS * tSeconds;
  const double c = std::cos(ang);
  const double s = std::sin(ang);
  parallelFor(count_, kBatchChunk, [&](std::size_t begin, std::size_t end) {
    OPENSPACE_ASSERT(begin <= end && end <= count_,
                     "parallelFor chunk must stay inside the fleet");
    for (std::size_t i = begin; i < end; ++i) {
      // Operation for operation the scalar spec's perifocal block.
      const double mRad =
          meanAnomalyAtEpochRad_[i] + meanMotionRadPerS_[i] * tSeconds;
      const double eAnomRad = solveKepler(mRad, eccentricity_[i]);
      const double cosE = std::cos(eAnomRad);
      const double sinE = std::sin(eAnomRad);
      const Vec3 eci = perifocalEci(
          cosE, sinE, semiMajorAxisM_[i], eccentricity_[i],
          {semiMinorAxisM_[i], p1_[i], p2_[i], p3_[i], q1_[i], q2_[i], q3_[i]});
      outEci[i] = eci;
      outEcef[i] = {c * eci.x - s * eci.y, s * eci.x + c * eci.y, eci.z};
    }
  });
}

namespace {

struct FleetCacheKey {
  std::uint64_t hash;
  std::uint64_t count;
  bool operator==(const FleetCacheKey&) const noexcept = default;
};

struct FleetCacheKeyHash {
  std::size_t operator()(const FleetCacheKey& k) const noexcept {
    std::uint64_t h = k.hash ^ (k.count * 0x9E3779B97F4A7C15ull);
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }
};

/// Process-wide LRU of compiled fleets (analogue of SnapshotCache, one
/// level down): the temporal router's interval grid, repeated coverage
/// scoring and handover sweeps all recompile the same constellation
/// otherwise. 64 entries and a 256 MiB byte budget (see
/// FleetEphemeris::setCompiledCacheByteBudget).
ByteBudgetLru<FleetCacheKey, FleetEphemeris, FleetCacheKeyHash>&
fleetCache() {
  static ByteBudgetLru<FleetCacheKey, FleetEphemeris, FleetCacheKeyHash> cache(
      64, std::size_t{256} * 1024 * 1024);
  return cache;
}

}  // namespace

std::shared_ptr<const FleetEphemeris> FleetEphemeris::compiled(
    const std::vector<OrbitalElements>& elements, std::uint64_t hash) {
  OPENSPACE_ASSERT(hash == constellationHash(elements),
                   "compiled(): hash must be constellationHash(elements)");
  return fleetCache().getOrBuild(FleetCacheKey{hash, elements.size()}, [&] {
    return std::make_shared<const FleetEphemeris>(elements);
  });
}

std::size_t FleetEphemeris::setCompiledCacheByteBudget(std::size_t bytes) {
  return fleetCache().setByteBudget(bytes);
}

std::size_t FleetEphemeris::compiledCacheApproxBytes() {
  return fleetCache().approxBytes();
}

SatelliteSweep::SatelliteSweep(const OrbitalElements& elements) {
  reset(elements);
}

void SatelliteSweep::reset(const OrbitalElements& elements) {
  requireValidElements(elements);
  const double ecc = elements.eccentricity;
  const double a = elements.semiMajorAxisM;
  semiMajorAxisM_ = a;
  eccentricity_ = ecc;
  meanMotionRadPerS_ = elements.meanMotionRadPerS();
  meanAnomalyAtEpochRad_ = elements.meanAnomalyAtEpochRad;
  const PerifocalTerms t = perifocalTerms(elements);
  semiMinorAxisM_ = t.semiMinorAxisM;
  p1_ = t.p1;
  p2_ = t.p2;
  p3_ = t.p3;
  q1_ = t.q1;
  q2_ = t.q2;
  q3_ = t.q3;
  perigeeRadiusM_ = a * (1.0 - ecc);
  apogeeRadiusM_ = a * (1.0 + ecc);
  maxAngularRateRadPerS_ = elements.maxAngularRateRadPerS();
  // Drop the warm start: the next positionEciAt runs the cold Kepler
  // solve, exactly like a freshly constructed sweep.
  prevMeanRad_ = 0.0;
  prevEccentricRad_ = 0.0;
  primed_ = false;
}

double SatelliteSweep::eccentricAnomalyAt(double tSeconds) {
  const double mRad = meanAnomalyAtEpochRad_ + meanMotionRadPerS_ * tSeconds;
  const double eAnomRad = solveKeplerWarm(mRad, eccentricity_, primed_,
                                          prevMeanRad_, prevEccentricRad_);
  primed_ = true;
  return eAnomRad;
}

void SatelliteSweep::skipTo(double tSeconds) { eccentricAnomalyAt(tSeconds); }

Vec3 SatelliteSweep::positionEciAt(double tSeconds) {
  const double eAnomRad = eccentricAnomalyAt(tSeconds);
  const double cosE = std::cos(eAnomRad);
  const double sinE = std::sin(eAnomRad);
  return perifocalEci(cosE, sinE, semiMajorAxisM_, eccentricity_,
                      {semiMinorAxisM_, p1_, p2_, p3_, q1_, q2_, q3_});
}

}  // namespace openspace
