// The constellation-snapshot engine.
//
// The paper's routing design assumes every participant can cheaply compute
// the "full public view of the topology" from public ephemerides, and the
// §4 Figure-2 study re-evaluates the whole fleet's geometry at every sweep
// step. ConstellationSnapshot is the one place in the library where an
// entire constellation is propagated to a time t: it propagates every
// satellite once (in parallel via openspace::parallelFor), precomputes
// ECI and ECEF positions, answers elevation-visibility queries, and lazily
// builds a spatially pruned ISL adjacency that path queries share. Every
// layer that needs "all satellites at time t" — the Figure-2 engine, the
// topology builder, the coverage estimators, ISL discovery, the coalition
// oracle — consumes this type instead of propagating by hand.
//
// SnapshotCache is the companion LRU cache keyed by (constellation hash,
// quantized t): sweeps that revisit a timestep (e.g. the worst-case and
// Monte-Carlo coverage estimators scoring the same constellation) share
// one propagation instead of repeating it.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include <openspace/core/thread_annotations.hpp>
#include <openspace/geo/geodetic.hpp>
#include <openspace/geo/units.hpp>
#include <openspace/orbit/elements.hpp>

namespace openspace {

class EphemerisService;

/// Fleet size at or below which islTopology() uses the all-pairs O(N^2)
/// scan instead of sorted-bucket spatial pruning. Below a few hundred
/// satellites the scan beats the grid's bucket-allocation and hash-probe
/// overhead. This is a performance crossover only, never a semantic switch:
/// both paths evaluate the same edge predicate and emit neighbors in the
/// same (index-ascending) order, so the adjacency is identical on either
/// side of the threshold (pinned by tests at 255/256/257 satellites).
inline constexpr std::size_t kIslAllPairsMaxSats = 256;

/// ISL adjacency of a snapshot: for each satellite, its (neighbor index,
/// distance) pairs sorted by neighbor index. An edge exists when the pair
/// is within `maxRangeM` and the sightline clears the Earth by
/// `losClearanceM`.
struct IslTopology {
  double maxRangeM = 0.0;
  double losClearanceM = 0.0;
  std::vector<std::vector<std::pair<std::size_t, double>>> adjacency;
  std::size_t linkCount = 0;
};

/// Order-dependent 64-bit hash of a constellation's orbital elements
/// (FNV-1a over the raw element doubles, in order — two element lists hash
/// equal iff they are bitwise identical in the same order).
std::uint64_t constellationHash(const std::vector<OrbitalElements>& elements);

/// All satellites of one constellation propagated to a single instant.
class ConstellationSnapshot {
 public:
  /// Propagate `elements` to time t (parallel over satellites). Throws
  /// InvalidArgumentError unless t is finite and t * 1e6 fits an int64
  /// (the caches' microsecond time key).
  ConstellationSnapshot(std::vector<OrbitalElements> elements, double tSeconds);

  /// Propagate every satellite registered in `ephemeris`, in publication
  /// order (index i == ephemeris.satellites()[i]).
  ConstellationSnapshot(const EphemerisService& ephemeris, double tSeconds);

  double timeSeconds() const noexcept { return tS_; }
  std::size_t size() const noexcept { return elements_.size(); }
  bool empty() const noexcept { return elements_.empty(); }
  std::uint64_t elementsHash() const noexcept { return hash_; }

  /// Approximate resident size in bytes: the element list plus both
  /// position arrays. The lazily built ISL adjacency is deliberately
  /// excluded — SnapshotCache charges entries at insert time, before any
  /// topology exists, and an approximate budget does not chase later
  /// growth.
  std::size_t approxBytes() const noexcept {
    return sizeof(*this) +
           elements_.size() * (sizeof(OrbitalElements) + 2 * sizeof(Vec3));
  }

  const std::vector<OrbitalElements>& elements() const noexcept {
    return elements_;
  }
  /// ECI positions at timeSeconds(), one per satellite.
  const std::vector<Vec3>& eci() const noexcept { return eci_; }
  /// The same positions rotated into ECEF.
  const std::vector<Vec3>& ecef() const noexcept { return ecef_; }
  const Vec3& eci(std::size_t i) const { return eci_.at(i); }
  const Vec3& ecef(std::size_t i) const { return ecef_.at(i); }
  /// Altitude above the mean-radius Earth, meters.
  double altitudeM(std::size_t i) const;

  /// Closest satellite above `minElevationRad` as seen from a ground site
  /// (site ECEF computed once); nullopt if none is visible.
  std::optional<std::size_t> closestVisible(const Geodetic& site,
                                            double minElevationRad) const;
  std::optional<std::size_t> closestVisible(const Vec3& siteEcef,
                                            double minElevationRad) const;

  /// ISL adjacency under (maxRangeM, losClearanceM). Built lazily on first
  /// use with sorted-bucket spatial pruning (flat CSR buckets over grid
  /// cells of side >= maxRangeM — the side is clamped up when the packed
  /// cell keys would otherwise overflow, so the pruning path covers every
  /// finite geometry at every fleet size: only the 27 neighboring cells
  /// are scanned per satellite, never all pairs), then cached on the
  /// snapshot; subsequent calls with the same parameters are free.
  /// Thread-safe.
  std::shared_ptr<const IslTopology> islTopology(
      double maxRangeM, double losClearanceM = km(80.0)) const;

  /// Dijkstra over the cached ISL adjacency, edge weight = distance.
  /// Returns (path length, hops) or nullopt if disconnected. The adjacency
  /// is built once per snapshot, not once per (src, dst) query.
  std::optional<std::pair<double, int>> shortestIslPath(
      std::size_t src, std::size_t dst, double maxRangeM,
      double losClearanceM = km(80.0)) const;

 private:
  void propagateAll();

  std::vector<OrbitalElements> elements_;
  double tS_ = 0.0;
  std::uint64_t hash_ = 0;
  std::vector<Vec3> eci_;
  std::vector<Vec3> ecef_;
  mutable Mutex islMutex_;
  mutable std::shared_ptr<const IslTopology> isl_ OPENSPACE_GUARDED_BY(islMutex_);
};

/// Thread-safe LRU map from `Key` to shared immutable `Value`s, bounded by
/// an entry count and an approximate byte budget (each value's
/// approxBytes(), charged at insert time). The one eviction policy behind
/// SnapshotCache and the compiled-fleet (FleetEphemeris::compiled) and
/// compiled-index (FootprintIndex2::compiled) caches: entries leave from
/// the LRU tail while either limit is exceeded, the newest entry is exempt
/// (so an oversized value still caches, alone), and with equal-size
/// entries the byte rule degenerates to a smaller effective capacity, so
/// the eviction *order* is plain LRU whichever limit binds.
template <class Key, class Value, class KeyHash>
class ByteBudgetLru {
 public:
  /// Zero limits are clamped to 1.
  ByteBudgetLru(std::size_t capacity, std::size_t byteBudget)
      : capacity_(capacity == 0 ? 1 : capacity),
        byteBudget_(byteBudget == 0 ? 1 : byteBudget) {}

  /// The cached value for `key` (promoted to most recently used), or
  /// build() — run outside the lock, so concurrent misses on different
  /// keys do not serialize — inserted. When two misses on one key race,
  /// the first insert wins and both callers get it. A build that throws
  /// leaves the cache unchanged. Counts a hit or a miss.
  template <class Build>
  std::shared_ptr<const Value> getOrBuild(const Key& key, Build&& build)
      OPENSPACE_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (auto hit = promoteLocked(key)) {
        ++hits_;
        return hit;
      }
      ++misses_;
    }
    std::shared_ptr<const Value> built = build();
    MutexLock lock(mutex_);
    if (auto first = promoteLocked(key)) return first;
    const std::size_t entryBytes = built->approxBytes();
    lru_.emplace_front(Entry{key, std::move(built), entryBytes});
    index_.emplace(key, lru_.begin());
    bytes_ += entryBytes;
    evictLocked();
    return lru_.front().value;
  }

  /// Replace the byte budget (0 is clamped to 1) and apply it at once.
  /// Returns the previous budget.
  std::size_t setByteBudget(std::size_t budget) OPENSPACE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const std::size_t previous = byteBudget_;
    byteBudget_ = budget == 0 ? 1 : budget;
    evictLocked();
    return previous;
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t byteBudget() const OPENSPACE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return byteBudget_;
  }
  std::size_t size() const OPENSPACE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return lru_.size();
  }
  /// Summed insert-time approxBytes() of the cached values.
  std::size_t approxBytes() const OPENSPACE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return bytes_;
  }
  std::size_t hits() const OPENSPACE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return hits_;
  }
  std::size_t misses() const OPENSPACE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return misses_;
  }
  /// Drop every entry and reset the hit/miss counters.
  void clear() OPENSPACE_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    lru_.clear();
    index_.clear();
    bytes_ = 0;
    hits_ = 0;
    misses_ = 0;
  }

 private:
  struct Entry {
    Key key;
    std::shared_ptr<const Value> value;
    std::size_t bytes = 0;  ///< approxBytes() at insert time.
  };

  std::shared_ptr<const Value> promoteLocked(const Key& key)
      OPENSPACE_REQUIRES(mutex_) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().value;
  }

  void evictLocked() OPENSPACE_REQUIRES(mutex_) {
    while (lru_.size() > 1 &&
           (lru_.size() > capacity_ || bytes_ > byteBudget_)) {
      bytes_ -= lru_.back().bytes;
      index_.erase(lru_.back().key);
      lru_.pop_back();
    }
  }

  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::size_t byteBudget_ OPENSPACE_GUARDED_BY(mutex_);
  /// Front = most recently used.
  std::list<Entry> lru_ OPENSPACE_GUARDED_BY(mutex_);
  std::unordered_map<Key, typename std::list<Entry>::iterator, KeyHash> index_
      OPENSPACE_GUARDED_BY(mutex_);
  std::size_t bytes_ OPENSPACE_GUARDED_BY(mutex_) = 0;
  std::size_t hits_ OPENSPACE_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ OPENSPACE_GUARDED_BY(mutex_) = 0;
};

/// LRU cache of recent snapshots keyed by (constellation hash, satellite
/// count, t quantized to 1 microsecond). Thread-safe; the global() instance
/// is shared by every snapshot consumer in the library so that e.g. the
/// worst-case and Monte-Carlo coverage estimators scoring the same
/// constellation at the same instant propagate it once.
class SnapshotCache {
 public:
  /// Default byte budget: generous enough that count-based eviction
  /// dominates for ordinary fleets (a 66k-satellite snapshot is ~7 MiB,
  /// so ~32 of them fit); the byte cap exists so mega-constellation
  /// sweeps cannot pin gigabytes of dead snapshots.
  static constexpr std::size_t kDefaultByteBudget =
      std::size_t{512} * 1024 * 1024;

  explicit SnapshotCache(std::size_t capacity = 32,
                         std::size_t byteBudget = kDefaultByteBudget)
      : lru_(capacity, byteBudget) {}

  /// The snapshot of `elements` at `tSeconds` — cached, or built and
  /// inserted under the ByteBudgetLru policy (`capacity()` entries,
  /// `byteBudget()` bytes, newest entry exempt, plain LRU order). Throws
  /// InvalidArgumentError, before any lookup, for a time the constructor
  /// rejects: non-finite times would otherwise share one key.
  std::shared_ptr<const ConstellationSnapshot> at(
      const std::vector<OrbitalElements>& elements, double tSeconds);
  std::shared_ptr<const ConstellationSnapshot> at(
      const EphemerisService& ephemeris, double tSeconds);

  std::size_t capacity() const noexcept { return lru_.capacity(); }
  std::size_t byteBudget() const { return lru_.byteBudget(); }
  std::size_t size() const { return lru_.size(); }
  /// Summed approxBytes() of the cached snapshots (insert-time values).
  std::size_t approxBytes() const { return lru_.approxBytes(); }
  std::size_t hits() const { return lru_.hits(); }
  std::size_t misses() const { return lru_.misses(); }
  void clear() { lru_.clear(); }

  static SnapshotCache& global();

 private:
  struct Key {
    std::uint64_t hash;
    std::uint64_t count;
    std::int64_t tMicros;
    bool operator==(const Key&) const noexcept = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  ByteBudgetLru<Key, ConstellationSnapshot, KeyHash> lru_;
};

}  // namespace openspace
