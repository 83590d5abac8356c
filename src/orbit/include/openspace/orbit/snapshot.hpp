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
  /// Propagate `elements` to time t (parallel over satellites).
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
                         std::size_t byteBudget = kDefaultByteBudget);

  /// The snapshot of `elements` at `tSeconds` — cached, or built and
  /// inserted. Insertion evicts least-recently-used entries while either
  /// the entry count exceeds `capacity()` or the summed approxBytes()
  /// exceed `byteBudget()`; the newest entry itself is never evicted.
  /// When all entries are the same size the byte rule degenerates to a
  /// smaller effective capacity, so the eviction *order* is always plain
  /// LRU regardless of which limit binds.
  std::shared_ptr<const ConstellationSnapshot> at(
      const std::vector<OrbitalElements>& elements, double tSeconds);
  std::shared_ptr<const ConstellationSnapshot> at(
      const EphemerisService& ephemeris, double tSeconds);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t byteBudget() const noexcept { return byteBudget_; }
  std::size_t size() const;
  /// Summed approxBytes() of the cached snapshots (insert-time values).
  std::size_t approxBytes() const;
  std::size_t hits() const;
  std::size_t misses() const;
  void clear();

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
  struct Entry {
    Key key;
    std::shared_ptr<const ConstellationSnapshot> snapshot;
    std::size_t bytes = 0;  ///< approxBytes() at insert time.
  };

  /// Cache probe under the lock; returns the entry (promoted to MRU) or
  /// nullptr on a miss. Counts the hit/miss either way.
  std::shared_ptr<const ConstellationSnapshot> probe(const Key& key)
      OPENSPACE_EXCLUDES(mutex_);
  /// Build the snapshot (outside the lock) and insert it, resolving a
  /// racing duplicate insert in favor of the first.
  std::shared_ptr<const ConstellationSnapshot> insert(
      const Key& key, std::vector<OrbitalElements>&& elements, double tSeconds)
      OPENSPACE_EXCLUDES(mutex_);

  std::size_t capacity_;
  std::size_t byteBudget_;
  mutable Mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> lru_ OPENSPACE_GUARDED_BY(mutex_);
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_
      OPENSPACE_GUARDED_BY(mutex_);
  std::size_t bytes_ OPENSPACE_GUARDED_BY(mutex_) = 0;
  std::size_t hits_ OPENSPACE_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ OPENSPACE_GUARDED_BY(mutex_) = 0;
};

}  // namespace openspace
