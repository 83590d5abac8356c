// The million-user session plane's state store (paper §2.2 at scale).
//
// Every associated user terminal owns one session: its serving satellite,
// its roaming-certificate handle, and the *next predicted handover time*
// (when the serving satellite drops below the elevation mask). The paper's
// "associate once, then hand over every ~15 s without re-authentication"
// economics only show up when that state persists between epochs — the
// stateless batch paths (associateUsers, per-user best-satellite scans)
// pay the full acquisition cost every epoch for every user.
//
// SessionTable shards sessions by user id into structure-of-arrays shards,
// each guarded by an annotated openspace::Mutex. Inside a shard:
//  * SoA field arrays, one slot per session;
//  * per-satellite occupancy buckets (how many of this shard's sessions
//    each satellite is serving — summed across shards for fleet-level
//    load);
//  * a time-ordered expiry min-heap over (next event time, slot), so an
//    epoch sweep touches only the sessions whose predicted handover falls
//    inside the epoch instead of scanning the whole table;
//  * a byte-budgeted LRU certificate cache (the visited-provider
//    verification results that make a predictive handover a purely local
//    operation — see DESIGN.md §15).
//
// Shard assignment is a pure function of the user id, so a session never
// migrates between shards and the epoch sweep (session/handover_sweep.hpp)
// can fan shards over parallelFor in fixed one-shard chunks with
// bit-identical serial==parallel results.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include <openspace/auth/certificate.hpp>
#include <openspace/core/thread_annotations.hpp>
#include <openspace/geo/geodetic.hpp>
#include <openspace/geo/vec3.hpp>

namespace openspace {

/// Session lifecycle (the table-resident projection of AssociationState:
/// an inserted session is past Authenticating by construction).
enum class SessionState : std::uint8_t {
  Serving,        ///< Associated; serving satellite + predicted expiry known.
  Scanning,       ///< In a coverage hole; re-acquiring on the 10 s grid.
  Disassociated,  ///< Dropped (certificate expiry / regional outage).
};

std::string_view sessionStateName(SessionState s) noexcept;

/// One user entering the table: location plus the roaming-certificate
/// handle its home ISP issued at association time.
struct SessionSeed {
  UserId user = 0;
  Geodetic location;
  double certExpiresAtS = 0.0;
  std::uint64_t certTag = 0;  ///< Certificate::tag — the cached handle.
};

/// One executed predictive handover, in fleet-index terms.
struct SessionEvent {
  UserId user = 0;
  double atS = 0.0;
  std::uint32_t fromSat = 0;  ///< Fleet index (EphemerisService order).
  std::uint32_t toSat = 0;
  double latencyS = 0.0;
};

/// Sentinel fleet index for "no satellite".
inline constexpr std::uint32_t kNoSatellite = 0xFFFFFFFFu;

/// Sharded SoA store of user sessions. All public methods are thread-safe;
/// bulk accessors (size, checksums, occupancy) visit shards in shard order
/// so their results are deterministic. The epoch sweep works directly on
/// shard internals under the shard lock.
class SessionTable {
 public:
  /// `fleetSize` sizes the per-satellite occupancy buckets (fleet indexes
  /// must be < fleetSize); `shardCount` is clamped to >= 1. Memory scales
  /// with shardCount * fleetSize for the buckets — keep shardCount modest
  /// for mega-fleets. Throws InvalidArgumentError for fleetSize == 0.
  explicit SessionTable(std::size_t fleetSize, std::size_t shardCount = 32);
  ~SessionTable();

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  std::size_t shardCount() const noexcept { return shards_.size(); }
  std::size_t fleetSize() const noexcept { return fleetSize_; }

  /// Simulation clock: every session's state is current as of this time.
  /// Advanced by HandoverSweep::runEpoch; set by the initial seed.
  double clockS() const noexcept { return clockS_; }

  /// Total sessions ever inserted (any state).
  std::size_t size() const;
  /// Sessions currently Serving or Scanning.
  std::size_t activeCount() const;
  /// Serving sessions per satellite (fleet index), summed over shards.
  std::vector<std::uint64_t> perSatelliteOccupancy() const;

  /// Read-only view of one session, for tests and diagnostics.
  struct SessionView {
    SessionState state = SessionState::Disassociated;
    std::uint32_t servingSat = kNoSatellite;
    double nextEventS = 0.0;
    double certExpiresAtS = 0.0;
    std::uint64_t certTag = 0;
  };
  std::optional<SessionView> find(UserId user) const;

  /// FNV-1a fold over every shard's session fields in (shard, slot) order
  /// — bitwise identity of the logical table state. Two tables that went
  /// through the same seed + sweep sequence checksum equal at any thread
  /// count (the serial==parallel gate in bench/bench_session.cpp).
  std::uint64_t stateChecksum() const;

  /// Approximate resident bytes: SoA arrays, heaps, occupancy buckets and
  /// the certificate caches.
  std::size_t approxBytes() const;

  /// Total byte budget of the per-shard certificate caches (split evenly
  /// across shards; same eviction contract as the compiled-index LRUs:
  /// LRU-tail eviction while over budget, newest entry exempt). Returns
  /// the previous total budget; pass 0 to shrink each shard cache to one
  /// entry.
  std::size_t setCertificateCacheByteBudget(std::size_t bytes);
  /// Summed approxBytes of the per-shard certificate caches.
  std::size_t certificateCacheApproxBytes() const;

  /// Invariant audit: throws StateError unless, in every shard, each
  /// satellite's occupancy equals the number of Serving slots on it, every
  /// Serving slot has a heap entry whose time equals its nextEventS (and
  /// the heap is a valid min-heap with no entry older than clockS()),
  /// slotOf is a bijection between the shard's users and slots, and the
  /// scanning list holds exactly the Scanning slots, once each.
  /// O(sessions + heap + fleet) per shard.
  void audit() const;

  /// Drop every active session within `radiusM` (chord distance on the
  /// ECEF sphere) of `center` — the regional ground-station-outage
  /// scenario: the region's users fall back to Disassociated and must
  /// re-associate (HandoverSweep::seed reactivates them). Returns the
  /// number of sessions dropped. Deterministic at any thread count.
  std::size_t disassociateRegion(const Geodetic& center, double radiusM);

 private:
  friend class HandoverSweep;

  /// Expiry-heap entry: min-ordered by (atS, slot). Entries are lazy —
  /// superseded ones are skipped on pop when atS no longer matches the
  /// slot's nextEventS.
  struct HeapEntry {
    double atS = 0.0;
    std::uint32_t slot = 0;
  };

  /// Byte-budgeted LRU of verified certificate tags, one per shard. A hit
  /// means the visited provider already verified this user's roaming
  /// certificate — the handover needs no tag recomputation (a local
  /// operation). Shard-local by construction, so parallel sweeps stay
  /// deterministic.
  class CertificateCache {
   public:
    /// True (and refreshed to most-recent) iff `tag` is cached for `user`.
    bool hit(UserId user, std::uint64_t tag);
    /// Record a verified tag, evicting LRU-tail entries while over budget
    /// (the newest entry is exempt).
    void insert(UserId user, std::uint64_t tag);
    void invalidate(UserId user);
    std::size_t setByteBudget(std::size_t bytes);
    std::size_t approxBytes() const noexcept { return bytes_; }
    std::size_t size() const noexcept { return order_.size(); }

   private:
    struct Entry {
      UserId user = 0;
      std::uint64_t tag = 0;
    };
    static constexpr std::size_t kEntryBytes =
        sizeof(Entry) + 6 * sizeof(void*);  ///< List node + map slot.
    std::size_t byteBudget_ = 1 << 20;
    std::size_t bytes_ = 0;
    /// Most-recent first.
    std::list<Entry> order_;
    std::unordered_map<UserId, std::list<Entry>::iterator> index_;
  };

  /// All per-shard state, guarded as one unit by the shard mutex.
  struct State {
    // SoA session fields, one slot per session.
    std::vector<UserId> user;
    std::vector<Geodetic> site;
    std::vector<Vec3> siteEcef;       ///< Precomputed geodeticToEcef(site).
    std::vector<std::uint32_t> servingSat;  ///< Fleet index or kNoSatellite.
    std::vector<double> nextEventS;   ///< Serving: predicted expiry.
                                      ///< Scanning: next 10 s grid probe.
    std::vector<double> outageFromS;  ///< Scanning: outage accrued up to here.
    std::vector<double> certExpiresAtS;
    std::vector<std::uint64_t> certTag;
    std::vector<SessionState> state;
    std::vector<HeapEntry> heap;             ///< (nextEventS, slot) min-heap.
    std::vector<std::uint32_t> scanning;     ///< Slots in Scanning state.
    std::vector<std::uint64_t> satOccupancy; ///< Per-satellite buckets.
    std::unordered_map<UserId, std::uint32_t> slotOf;
    CertificateCache certCache;
  };

  struct Shard {
    mutable Mutex mu;
    State st OPENSPACE_GUARDED_BY(mu);
  };

  std::uint32_t shardOf(UserId user) const noexcept;

  static void heapPush(std::vector<HeapEntry>& heap, HeapEntry e);
  static HeapEntry heapPop(std::vector<HeapEntry>& heap);

  std::size_t fleetSize_;
  std::vector<std::unique_ptr<Shard>> shards_;
  double clockS_ = 0.0;  ///< Written only by the coordinating sweep thread.
  bool seeded_ = false;  ///< First seed sets the clock; later ones obey it.
};

}  // namespace openspace
