// The single translation unit in the library that propagates a whole
// constellation: every other layer gets its "all satellites at time t"
// view through ConstellationSnapshot / SnapshotCache.
#include <openspace/orbit/snapshot.hpp>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/assert.hpp>
#include <openspace/core/scratch.hpp>
#include <openspace/geo/error.hpp>
#include <openspace/geo/wgs84.hpp>
#include <openspace/orbit/ephemeris.hpp>
#include <openspace/orbit/propagation_batch.hpp>

namespace openspace {

namespace {

constexpr std::size_t kAdjacencyChunk = 16;

// Word-wise FNV-1a step: one xor-multiply per double. The snapshot cache
// only needs collision resistance across distinct constellations, and the
// hash sits on the hot path of every uncached snapshot construction.
std::uint64_t fnv1a(std::uint64_t h, double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  h ^= bits;
  h *= 0x100000001B3ull;
  return h;
}

std::vector<OrbitalElements> elementsOf(const EphemerisService& ephemeris) {
  std::vector<OrbitalElements> elements;
  elements.reserve(ephemeris.size());
  for (const SatelliteId sid : ephemeris.satellites()) {
    elements.push_back(ephemeris.record(sid).elements);
  }
  return elements;
}

/// Pack integer grid-cell coordinates into one map key (cells are offset
/// into the non-negative range; 21 bits per axis is ample for LEO shells
/// divided by any usable ISL range).
std::int64_t cellKey(std::int64_t cx, std::int64_t cy, std::int64_t cz) noexcept {
  constexpr std::int64_t kOffset = 1 << 20;
  return ((cx + kOffset) << 42) | ((cy + kOffset) << 21) | (cz + kOffset);
}

/// True iff a grid coordinate fits the 21-bit per-axis budget of cellKey,
/// with one cell of headroom on each side for the ±1 neighbor lookups.
/// Coordinates outside this range would silently alias across axes.
bool cellCoordFits(std::int64_t c) noexcept {
  constexpr std::int64_t kMax = (1 << 20) - 2;
  return c >= -kMax && c <= kMax;
}

/// `tSeconds` quantized to whole microseconds — the snapshot and index
/// caches' time key. Throws InvalidArgumentError unless t is finite and
/// t * 1e6 fits an int64: a NaN time propagates to all-NaN positions, and
/// every non-finite time would round to one shared key.
std::int64_t timeKeyMicros(double tSeconds) {
  constexpr double kInt64Bound = 9'223'372'036'854'775'808.0;  // 2^63
  const double micros = tSeconds * 1e6;
  if (!(micros >= -kInt64Bound && micros < kInt64Bound)) {
    throw InvalidArgumentError(
        "snapshot: time must be finite and within +/-9.2e12 s");
  }
  return std::llround(micros);
}

}  // namespace

std::uint64_t constellationHash(const std::vector<OrbitalElements>& elements) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const OrbitalElements& el : elements) {
    h = fnv1a(h, el.semiMajorAxisM);
    h = fnv1a(h, el.eccentricity);
    h = fnv1a(h, el.inclinationRad);
    h = fnv1a(h, el.raanRad);
    h = fnv1a(h, el.argPerigeeRad);
    h = fnv1a(h, el.meanAnomalyAtEpochRad);
  }
  return h;
}

ConstellationSnapshot::ConstellationSnapshot(
    std::vector<OrbitalElements> elements, double tSeconds)
    : elements_(std::move(elements)),
      tS_(tSeconds),
      hash_(constellationHash(elements_)) {
  (void)timeKeyMicros(tSeconds);
  propagateAll();
}

ConstellationSnapshot::ConstellationSnapshot(const EphemerisService& ephemeris,
                                             double tSeconds)
    : ConstellationSnapshot(elementsOf(ephemeris), tSeconds) {}

void ConstellationSnapshot::propagateAll() {
  // The SoA batch kernel (orbit/propagation_batch.hpp) evaluates the whole
  // fleet over flat precomputed arrays — bit-identical to the scalar
  // positionEci/eciToEcef pair per satellite, but without re-deriving the
  // time-invariant terms per call. The compiled-fleet cache makes repeated
  // snapshots of one constellation (temporal router grids, coverage
  // estimators, sweeps) pay the compile once.
  const std::shared_ptr<const FleetEphemeris> fleet =
      FleetEphemeris::compiled(elements_, hash_);
  fleet->positionsAt(tS_, eci_, ecef_);
}

double ConstellationSnapshot::altitudeM(std::size_t i) const {
  OPENSPACE_ASSERT(i < eci_.size(), "satellite index within the snapshot");
  return eci_.at(i).norm() - wgs84::kMeanRadiusM;
}

std::optional<std::size_t> ConstellationSnapshot::closestVisible(
    const Geodetic& site, double minElevationRad) const {
  return closestVisible(geodeticToEcef(site), minElevationRad);
}

std::optional<std::size_t> ConstellationSnapshot::closestVisible(
    const Vec3& siteEcef, double minElevationRad) const {
  OPENSPACE_ASSERT(ecef_.size() == elements_.size(),
                   "snapshot fully propagated before visibility queries");
  const GroundObserver site(siteEcef);
  const ElevationMask mask = ElevationMask::of(minElevationRad);
  std::optional<std::size_t> best;
  double bestRange = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < ecef_.size(); ++i) {
    if (!site.sees(ecef_[i], mask)) continue;
    const double range = siteEcef.distanceTo(ecef_[i]);
    if (range < bestRange) {
      bestRange = range;
      best = i;
    }
  }
  return best;
}

std::shared_ptr<const IslTopology> ConstellationSnapshot::islTopology(
    double maxRangeM, double losClearanceM) const {
  if (maxRangeM <= 0.0) {
    throw InvalidArgumentError("islTopology: maxRangeM must be > 0");
  }
  {
    MutexLock lock(islMutex_);
    if (isl_ && isl_->maxRangeM == maxRangeM &&
        isl_->losClearanceM == losClearanceM) {
      return isl_;
    }
  }

  auto topo = std::make_shared<IslTopology>();
  topo->maxRangeM = maxRangeM;
  topo->losClearanceM = losClearanceM;
  const std::size_t n = eci_.size();
  topo->adjacency.resize(n);
  // Fleets of <= kIslAllPairsMaxSats (snapshot.hpp) take the all-pairs
  // scan; the output is identical to the grid's (same edge predicate,
  // neighbors in index order either way — pinned by the boundary tests).
  const auto bruteForce = [&] {
    parallelFor(n, kAdjacencyChunk, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        auto& adj = topo->adjacency[i];
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          const double d = eci_[i].distanceTo(eci_[j]);
          if (d <= maxRangeM && lineOfSightClear(eci_[i], eci_[j], losClearanceM)) {
            adj.emplace_back(j, d);
          }
        }
      }
    });
  };
  // Sorted-bucket spatial pruning for larger fleets: bin satellites into
  // grid cells of side >= maxRangeM; any in-range pair lies in the same
  // or an adjacent cell, so each satellite scans at most 27 buckets
  // instead of all n. The cell side starts at maxRangeM and is clamped
  // *up* until every coordinate fits cellKey's 21-bit per-axis budget —
  // a larger cell only widens the candidate sets (correctness needs just
  // side >= maxRangeM), so the all-pairs fallback below is unreachable
  // for any finite position set; it survives only as a defensive guard
  // against non-finite positions (pinned at scale by tests/test_snapshot
  // .cpp's tiny-range grid test).
  bool gridFits = n > kIslAllPairsMaxSats;
  std::vector<std::array<std::int64_t, 3>> coords;
  if (gridFits) {
    double maxAbsM = 0.0;
    for (const Vec3& p : eci_) {
      maxAbsM = std::max({maxAbsM, std::abs(p.x), std::abs(p.y),
                          std::abs(p.z)});
    }
    constexpr double kMaxCoord = static_cast<double>((1 << 20) - 3);
    double cell = maxRangeM;
    if (std::isfinite(maxAbsM) && maxAbsM / cell > kMaxCoord) {
      cell = maxAbsM / kMaxCoord;
    }
    coords.resize(n);
    for (std::size_t i = 0; i < n && gridFits; ++i) {
      coords[i] = {static_cast<std::int64_t>(std::floor(eci_[i].x / cell)),
                   static_cast<std::int64_t>(std::floor(eci_[i].y / cell)),
                   static_cast<std::int64_t>(std::floor(eci_[i].z / cell))};
      gridFits = cellCoordFits(coords[i][0]) && cellCoordFits(coords[i][1]) &&
                 cellCoordFits(coords[i][2]);
    }
  }
  if (n > 1 && !gridFits) {
    bruteForce();
  } else if (n > 1) {
    // Flat CSR buckets instead of a node-based hash map: one (key, index)
    // sort builds the whole structure with zero per-bucket allocations,
    // and neighbor lookups are binary searches over a contiguous sorted
    // key array — at 66k satellites this is the difference between the
    // topology stage scaling and the map's allocator dominating it.
    std::vector<std::pair<std::int64_t, std::uint32_t>> order(n);
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = {cellKey(coords[i][0], coords[i][1], coords[i][2]),
                  static_cast<std::uint32_t>(i)};
    }
    std::sort(order.begin(), order.end());
    std::vector<std::int64_t> bucketKeys;
    std::vector<std::uint32_t> bucketStart;
    for (std::size_t e = 0; e < n; ++e) {
      if (e == 0 || order[e].first != order[e - 1].first) {
        bucketKeys.push_back(order[e].first);
        bucketStart.push_back(static_cast<std::uint32_t>(e));
      }
    }
    bucketStart.push_back(static_cast<std::uint32_t>(n));
    const auto bucketOf = [&](std::int64_t key)
        -> std::pair<std::uint32_t, std::uint32_t> {
      const auto it =
          std::lower_bound(bucketKeys.begin(), bucketKeys.end(), key);
      if (it == bucketKeys.end() || *it != key) return {0, 0};
      const std::size_t b =
          static_cast<std::size_t>(it - bucketKeys.begin());
      return {bucketStart[b], bucketStart[b + 1]};
    };
    parallelFor(n, kAdjacencyChunk, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        auto& adj = topo->adjacency[i];
        for (std::int64_t dx = -1; dx <= 1; ++dx) {
          for (std::int64_t dy = -1; dy <= 1; ++dy) {
            for (std::int64_t dz = -1; dz <= 1; ++dz) {
              const auto [lo, hi] = bucketOf(cellKey(
                  coords[i][0] + dx, coords[i][1] + dy, coords[i][2] + dz));
              for (std::uint32_t e = lo; e < hi; ++e) {
                const std::size_t j = order[e].second;
                OPENSPACE_ASSERT(j < n, "bucket entries index the fleet");
                if (j == i) continue;
                const double d = eci_[i].distanceTo(eci_[j]);
                if (d <= maxRangeM &&
                    lineOfSightClear(eci_[i], eci_[j], losClearanceM)) {
                  adj.emplace_back(j, d);
                }
              }
            }
          }
        }
        std::sort(adj.begin(), adj.end());
      }
    });
  }
  std::size_t degreeSum = 0;
  for (const auto& adj : topo->adjacency) degreeSum += adj.size();
  topo->linkCount = degreeSum / 2;

  MutexLock lock(islMutex_);
  isl_ = std::move(topo);
  return isl_;
}

std::optional<std::pair<double, int>> ConstellationSnapshot::shortestIslPath(
    std::size_t src, std::size_t dst, double maxRangeM,
    double losClearanceM) const {
  const std::size_t n = eci_.size();
  if (src >= n || dst >= n) {
    throw InvalidArgumentError("shortestIslPath: satellite index out of range");
  }
  if (src == dst) return std::make_pair(0.0, 0);
  const std::shared_ptr<const IslTopology> topo =
      islTopology(maxRangeM, losClearanceM);

  // Per-thread reusable scratch (core/scratch.hpp): the stamped arrays reset
  // in O(1) and the heap keeps its capacity, so steady-state queries — e.g.
  // the fig2 Monte Carlo sweep issuing one per trial — allocate nothing.
  thread_local StampedArray<double> dist;
  thread_local StampedArray<int> hops;
  thread_local AddressableHeap pq;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  OPENSPACE_ASSERT(n < 0xFFFFFFFFu, "satellite indices fit the heap's 32 bits");
  dist.reset(n);
  hops.reset(n);
  pq.clear();
  pq.reserve(n);
  dist.set(src, 0.0);
  hops.set(src, 0);
  pq.push(0.0, static_cast<std::uint32_t>(src));
  // Non-negative weights: every pop settles its node (see RouteEngine).
  while (!pq.empty()) {
    const auto [d, u] = pq.pop();
    if (u == dst) break;
    const int throughHops = hops.getOr(u, 0) + 1;
    for (const auto& [v, w] : topo->adjacency[u]) {
      const double nd = d + w;
      if (nd < dist.getOr(v, kInf)) {
        dist.set(v, nd);
        hops.set(v, throughHops);
        pq.push(nd, static_cast<std::uint32_t>(v));
      }
    }
  }
#ifndef NDEBUG
  pq.audit();
#endif
  const double dstDist = dist.getOr(dst, kInf);
  if (std::isinf(dstDist)) return std::nullopt;
  return std::make_pair(dstDist, hops.getOr(dst, 0));
}

std::size_t SnapshotCache::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = k.hash;
  h ^= k.count * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<std::uint64_t>(k.tMicros) * 0xD1B54A32D192ED03ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

std::shared_ptr<const ConstellationSnapshot> SnapshotCache::at(
    const std::vector<OrbitalElements>& elements, double tSeconds) {
  const Key key{constellationHash(elements), elements.size(),
                timeKeyMicros(tSeconds)};
  // A hit never pays the O(n) element copy; only the miss path that
  // actually builds a snapshot materializes it.
  return lru_.getOrBuild(key, [&] {
    return std::make_shared<const ConstellationSnapshot>(elements, tSeconds);
  });
}

std::shared_ptr<const ConstellationSnapshot> SnapshotCache::at(
    const EphemerisService& ephemeris, double tSeconds) {
  const std::int64_t tMicros = timeKeyMicros(tSeconds);
  std::vector<OrbitalElements> elements = elementsOf(ephemeris);
  const Key key{constellationHash(elements), elements.size(), tMicros};
  return lru_.getOrBuild(key, [&] {
    return std::make_shared<const ConstellationSnapshot>(std::move(elements),
                                                         tSeconds);
  });
}

SnapshotCache& SnapshotCache::global() {
  static SnapshotCache cache(32);
  return cache;
}

}  // namespace openspace
