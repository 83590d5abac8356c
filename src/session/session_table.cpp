#include <openspace/session/session_table.hpp>

#include <algorithm>

#include <openspace/concurrency/parallel.hpp>
#include <openspace/core/hash.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

namespace {

/// Splitmix64-style finalizer spreading user ids over shards. Any stable
/// mix works — it only has to be a pure function of the id so a session's
/// shard never changes.
std::uint64_t mixUser(std::uint64_t v) noexcept {
  v += 0x9E3779B97F4A7C15ull;
  v = (v ^ (v >> 30)) * 0xBF58476D1CE4E5B9ull;
  v = (v ^ (v >> 27)) * 0x94D049BB133111EBull;
  return v ^ (v >> 31);
}

/// The expiry heap's order: std heap algorithms keep the earliest
/// (atS, slot) on top under this "later than" comparison.
struct LaterEntry {
  template <class Entry>
  bool operator()(const Entry& a, const Entry& b) const noexcept {
    return a.atS > b.atS || (a.atS == b.atS && a.slot > b.slot);
  }
};

}  // namespace

std::string_view sessionStateName(SessionState s) noexcept {
  switch (s) {
    case SessionState::Serving: return "serving";
    case SessionState::Scanning: return "scanning";
    case SessionState::Disassociated: return "disassociated";
  }
  return "?";
}

bool SessionTable::CertificateCache::hit(UserId user, std::uint64_t tag) {
  const auto it = index_.find(user);
  if (it == index_.end() || it->second->tag != tag) return false;
  order_.splice(order_.begin(), order_, it->second);
  return true;
}

void SessionTable::CertificateCache::insert(UserId user, std::uint64_t tag) {
  const auto it = index_.find(user);
  if (it != index_.end()) {
    it->second->tag = tag;
    order_.splice(order_.begin(), order_, it->second);
    return;
  }
  order_.push_front(Entry{user, tag});
  index_.emplace(user, order_.begin());
  bytes_ += kEntryBytes;
  // The just-inserted entry is exempt, so a tiny budget still caches one.
  while (order_.size() > 1 && bytes_ > byteBudget_) {
    index_.erase(order_.back().user);
    order_.pop_back();
    bytes_ -= kEntryBytes;
  }
}

void SessionTable::CertificateCache::invalidate(UserId user) {
  const auto it = index_.find(user);
  if (it == index_.end()) return;
  order_.erase(it->second);
  index_.erase(it);
  bytes_ -= kEntryBytes;
}

std::size_t SessionTable::CertificateCache::setByteBudget(std::size_t bytes) {
  const std::size_t previous = byteBudget_;
  byteBudget_ = bytes == 0 ? 1 : bytes;
  while (order_.size() > 1 && bytes_ > byteBudget_) {
    index_.erase(order_.back().user);
    order_.pop_back();
    bytes_ -= kEntryBytes;
  }
  return previous;
}

SessionTable::SessionTable(std::size_t fleetSize, std::size_t shardCount)
    : fleetSize_(fleetSize) {
  if (fleetSize == 0) {
    throw InvalidArgumentError("SessionTable: fleetSize must be > 0");
  }
  shardCount = std::max<std::size_t>(shardCount, 1);
  shards_.reserve(shardCount);
  for (std::size_t s = 0; s < shardCount; ++s) {
    auto shard = std::make_unique<Shard>();
    {
      MutexLock lock(shard->mu);
      shard->st.satOccupancy.assign(fleetSize, 0);
    }
    shards_.push_back(std::move(shard));
  }
}

SessionTable::~SessionTable() = default;

std::uint32_t SessionTable::shardOf(UserId user) const noexcept {
  return static_cast<std::uint32_t>(mixUser(user) % shards_.size());
}

void SessionTable::heapPush(std::vector<HeapEntry>& heap, HeapEntry e) {
  heap.push_back(e);
  std::push_heap(heap.begin(), heap.end(), LaterEntry{});
}

SessionTable::HeapEntry SessionTable::heapPop(std::vector<HeapEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), LaterEntry{});
  const HeapEntry e = heap.back();
  heap.pop_back();
  return e;
}

std::size_t SessionTable::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    n += shard->st.user.size();
  }
  return n;
}

std::size_t SessionTable::activeCount() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const SessionState s : shard->st.state) {
      n += s != SessionState::Disassociated ? 1 : 0;
    }
  }
  return n;
}

std::vector<std::uint64_t> SessionTable::perSatelliteOccupancy() const {
  std::vector<std::uint64_t> out(fleetSize_, 0);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (std::size_t i = 0; i < fleetSize_; ++i) {
      out[i] += shard->st.satOccupancy[i];
    }
  }
  return out;
}

std::optional<SessionTable::SessionView> SessionTable::find(UserId user) const {
  const Shard& shard = *shards_[shardOf(user)];
  MutexLock lock(shard.mu);
  const auto it = shard.st.slotOf.find(user);
  if (it == shard.st.slotOf.end()) return std::nullopt;
  const std::uint32_t slot = it->second;
  SessionView v;
  v.state = shard.st.state[slot];
  v.servingSat = shard.st.servingSat[slot];
  v.nextEventS = shard.st.nextEventS[slot];
  v.certExpiresAtS = shard.st.certExpiresAtS[slot];
  v.certTag = shard.st.certTag[slot];
  return v;
}

void SessionTable::audit() const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    MutexLock lock(shard.mu);
    const State& st = shard.st;
    const std::size_t n = st.user.size();
    if (st.site.size() != n || st.siteEcef.size() != n ||
        st.servingSat.size() != n || st.nextEventS.size() != n ||
        st.outageFromS.size() != n || st.certExpiresAtS.size() != n ||
        st.certTag.size() != n || st.state.size() != n ||
        st.satOccupancy.size() != fleetSize_) {
      throw StateError("SessionTable::audit: field arrays differ in length");
    }
    // Occupancy buckets count exactly the Serving slots.
    std::vector<std::uint64_t> serving(fleetSize_, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (st.state[i] != SessionState::Serving) continue;
      if (st.servingSat[i] >= fleetSize_) {
        throw StateError("SessionTable::audit: Serving slot has no satellite");
      }
      ++serving[st.servingSat[i]];
    }
    if (serving != st.satOccupancy) {
      throw StateError(
          "SessionTable::audit: occupancy differs from the Serving slots");
    }
    // Every Serving slot is reachable through a live heap entry.
    if (!std::is_heap(st.heap.begin(), st.heap.end(), LaterEntry{})) {
      throw StateError("SessionTable::audit: expiry heap out of order");
    }
    // runEpoch pops every entry due before the clock it advances to, and
    // every push is at or after the clock, so even a superseded entry is
    // one not yet due.
    std::vector<bool> live(n, false);
    for (const HeapEntry& e : st.heap) {
      if (e.slot >= n) {
        throw StateError("SessionTable::audit: heap entry out of range");
      }
      if (!(e.atS >= clockS_)) {
        throw StateError(
            "SessionTable::audit: heap entry older than the table clock");
      }
      if (st.nextEventS[e.slot] == e.atS) live[e.slot] = true;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (st.state[i] == SessionState::Serving && !live[i]) {
        throw StateError(
            "SessionTable::audit: Serving slot without a live heap entry");
      }
    }
    // slotOf maps every slot's user back to that slot (so the slots' users
    // are distinct) and holds no other key: a bijection.
    if (st.slotOf.size() != n) {
      throw StateError("SessionTable::audit: slotOf size != slot count");
    }
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = st.slotOf.find(st.user[i]);
      if (it == st.slotOf.end() || it->second != i ||
          shardOf(st.user[i]) != s) {
        throw StateError("SessionTable::audit: slotOf is not a bijection");
      }
    }
    // The scanning list is the set of Scanning slots, without repeats.
    std::vector<bool> listed(n, false);
    for (const std::uint32_t slot : st.scanning) {
      if (slot >= n || listed[slot] ||
          st.state[slot] != SessionState::Scanning) {
        throw StateError(
            "SessionTable::audit: scanning list holds a non-Scanning slot");
      }
      listed[slot] = true;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (st.state[i] == SessionState::Scanning && !listed[i]) {
        throw StateError(
            "SessionTable::audit: Scanning slot missing from the list");
      }
    }
  }
}

std::uint64_t SessionTable::stateChecksum() const {
  std::uint64_t h = kFnvOffsetBasis;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    const State& st = shard->st;
    for (std::size_t i = 0; i < st.user.size(); ++i) {
      h = fnv1a(h, st.user[i]);
      h = fnv1a(h, static_cast<std::uint64_t>(st.state[i]));
      h = fnv1a(h, st.servingSat[i]);
      h = fnv1a(h, bitsOf(st.nextEventS[i]));
      h = fnv1a(h, bitsOf(st.outageFromS[i]));
      h = fnv1a(h, bitsOf(st.certExpiresAtS[i]));
      h = fnv1a(h, st.certTag[i]);
    }
  }
  return h;
}

std::size_t SessionTable::approxBytes() const {
  std::size_t bytes = sizeof(*this);
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    const State& st = shard->st;
    bytes += sizeof(Shard);
    bytes += st.user.capacity() * sizeof(UserId);
    bytes += st.site.capacity() * sizeof(Geodetic);
    bytes += st.siteEcef.capacity() * sizeof(Vec3);
    bytes += st.servingSat.capacity() * sizeof(std::uint32_t);
    bytes += st.nextEventS.capacity() * sizeof(double);
    bytes += st.outageFromS.capacity() * sizeof(double);
    bytes += st.certExpiresAtS.capacity() * sizeof(double);
    bytes += st.certTag.capacity() * sizeof(std::uint64_t);
    bytes += st.state.capacity() * sizeof(SessionState);
    bytes += st.heap.capacity() * sizeof(HeapEntry);
    bytes += st.scanning.capacity() * sizeof(std::uint32_t);
    bytes += st.satOccupancy.capacity() * sizeof(std::uint64_t);
    bytes += st.slotOf.size() *
             (sizeof(UserId) + sizeof(std::uint32_t) + 2 * sizeof(void*));
    bytes += st.certCache.approxBytes();
  }
  return bytes;
}

std::size_t SessionTable::setCertificateCacheByteBudget(std::size_t bytes) {
  const std::size_t perShard = bytes / shards_.size();
  std::size_t previousTotal = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    previousTotal += shard->st.certCache.setByteBudget(perShard);
  }
  return previousTotal;
}

std::size_t SessionTable::certificateCacheApproxBytes() const {
  std::size_t bytes = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    bytes += shard->st.certCache.approxBytes();
  }
  return bytes;
}

std::size_t SessionTable::disassociateRegion(const Geodetic& center,
                                             double radiusM) {
  if (!(radiusM >= 0.0)) {
    throw InvalidArgumentError("disassociateRegion: radius must be >= 0");
  }
  const Vec3 centerEcef = geodeticToEcef(center);
  std::vector<std::size_t> dropped(shards_.size(), 0);
  parallelFor(shards_.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      Shard& shard = *shards_[s];
      MutexLock lock(shard.mu);
      State& st = shard.st;
      for (std::size_t i = 0; i < st.user.size(); ++i) {
        if (st.state[i] == SessionState::Disassociated) continue;
        if (st.siteEcef[i].distanceTo(centerEcef) > radiusM) continue;
        if (st.state[i] == SessionState::Serving &&
            st.servingSat[i] != kNoSatellite) {
          --st.satOccupancy[st.servingSat[i]];
        }
        st.state[i] = SessionState::Disassociated;
        st.servingSat[i] = kNoSatellite;
        st.certCache.invalidate(st.user[i]);
        ++dropped[s];
      }
      // Scanning slots just dropped must not be probed next epoch.
      std::erase_if(st.scanning, [&](std::uint32_t slot) {
        return st.state[slot] == SessionState::Disassociated;
      });
    }
  });
  std::size_t total = 0;
  for (const std::size_t d : dropped) total += d;
  return total;
}

}  // namespace openspace
