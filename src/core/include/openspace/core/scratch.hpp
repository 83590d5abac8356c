// units-file: generic scratch primitives; scalar meanings are caller-defined.
//
// Reusable zero-allocation search scratch: generation-stamped arrays and an
// addressable binary heap. The stamped arrays mark the RouteEngine's Yen
// masks; the heap orders the constellation snapshot's ISL path queries,
// the contact graph router and the RouteEngine's replay of Dijkstra's pop
// order on labels with flat steps (its searches themselves run on a ring
// of buckets, routing/engine.hpp): a query "clears" its arrays in O(1) by bumping a
// generation counter instead of refilling them, the heap resets only the
// entries a search left in it, and both keep their capacity across
// queries, so a warmed-up search allocates nothing at all.
//
// Determinism: AddressableHeap orders entries by (key, index)
// lexicographically, so pop order — and therefore parent choice among
// equal-cost relaxations — is identical regardless of insertion
// interleaving. Search kernels built on these primitives produce
// bit-identical results run-to-run and thread-count-to-thread-count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include <openspace/core/assert.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

/// A fixed-capacity array whose entries read as "untouched" until written
/// in the current generation. reset() is O(1) (amortized): it bumps the
/// generation stamp instead of refilling values.
template <class T>
class StampedArray {
 public:
  /// Start a new generation over `n` slots. Grows storage on demand; never
  /// shrinks, so steady-state reuse performs no allocation.
  void reset(std::size_t n) {
    if (n > stamps_.size()) {
      stamps_.resize(n, 0);
      values_.resize(n);
    }
    if (++generation_ == 0) {  // wrapped: all stamps are stale by definition
      std::fill(stamps_.begin(), stamps_.end(), 0);
      generation_ = 1;
    }
  }

  bool touched(std::size_t i) const {
    OPENSPACE_ASSERT(i < stamps_.size(), "StampedArray index in range");
    return stamps_[i] == generation_;
  }

  /// Value at i, or `fallback` when the slot is untouched this generation.
  const T& getOr(std::size_t i, const T& fallback) const {
    return touched(i) ? values_[i] : fallback;
  }

  void set(std::size_t i, const T& v) {
    OPENSPACE_ASSERT(i < stamps_.size(), "StampedArray index in range");
    values_[i] = v;
    stamps_[i] = generation_;
  }

 private:
  std::vector<T> values_;
  std::vector<std::uint32_t> stamps_;
  std::uint32_t generation_ = 0;
};

/// Addressable binary min-heap of (key, index) pairs over indices
/// 0..capacity-1, each present at most once. A position table maps every
/// index to its slot, so push() either inserts an index or lowers its key
/// in place (decrease-key): a search holds one entry per frontier node and
/// pops no stale entries. Ties break toward the smaller index,
/// deterministically.
///
/// Internally keys are stored as order-preserving integer bit patterns (the
/// standard sign-flip transform of the IEEE-754 layout), so the hot sift
/// compares are integer ops instead of FP-compare branch pairs. NaN keys
/// are not supported (asserted); -0.0 sorts strictly before +0.0, which is
/// indistinguishable to callers keying on costs or timestamps.
///
/// Entries leave through pop(), which clears their position, so clear()
/// touches only the entries still in the heap: a search that stops early
/// resets in O(frontier), one that drains the heap in O(1).
class AddressableHeap {
 public:
  struct Entry {
    double key;
    std::uint32_t index;
  };

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Accept indices below n from now on. Grows the position table on
  /// demand; never shrinks, so steady-state reuse performs no allocation.
  void reserve(std::size_t n) {
    OPENSPACE_ASSERT(n < kAbsent, "heap indices fit 32 bits");
    if (n > pos_.size()) pos_.resize(n, kAbsent);
  }

  /// Drop all entries but keep capacity for reuse.
  void clear() noexcept {
    for (const Packed& p : heap_) pos_[p.index] = kAbsent;
    heap_.clear();
  }

  /// Insert `index` with `key`, or lower the key of an index already in
  /// the heap to `key` (which must not be above its current key).
  void push(double key, std::uint32_t index) {
    OPENSPACE_ASSERT(key == key, "AddressableHeap keys must not be NaN");
    OPENSPACE_ASSERT(index < pos_.size(), "AddressableHeap index reserved");
    const Packed e{orderedBits(key), index};
    std::uint32_t slot = pos_[index];
    if (slot == kAbsent) {
      slot = static_cast<std::uint32_t>(heap_.size());
      heap_.push_back(e);
    } else {
      OPENSPACE_ASSERT(e.key <= heap_[slot].key,
                       "push lowers a present key, never raises it");
    }
    siftUp(slot, e);
  }

  /// Remove and return the minimum entry. Heap must be non-empty.
  Entry pop() {
    OPENSPACE_ASSERT(!heap_.empty(), "AddressableHeap::pop on empty heap");
    const Packed top = heap_.front();
    pos_[top.index] = kAbsent;
    const Packed last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) siftDown(0, last);
    return {keyOf(top), top.index};
  }

  /// Invariant audit: throws StateError unless every entry is no smaller
  /// than its parent, the position table names exactly the entries'
  /// slots, and no other index holds a position. O(capacity); builds
  /// without NDEBUG run it at the end of every search.
  void audit() const {
    for (std::size_t k = 0; k < heap_.size(); ++k) {
      if (k > 0 && less(heap_[k], heap_[(k - 1) / 2])) {
        throw StateError("AddressableHeap::audit: entry below its parent");
      }
      if (heap_[k].index >= pos_.size() || pos_[heap_[k].index] != k) {
        throw StateError(
            "AddressableHeap::audit: position table misses an entry");
      }
    }
    const auto held = static_cast<std::size_t>(
        std::count_if(pos_.begin(), pos_.end(),
                      [](std::uint32_t p) { return p != kAbsent; }));
    if (held != heap_.size()) {
      throw StateError("AddressableHeap::audit: stale position");
    }
  }

 private:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;
  static constexpr std::uint64_t kSignBit = 1ull << 63;

  struct Packed {
    std::uint64_t key;  ///< Order-preserving transform of the double key.
    std::uint32_t index;
  };

  /// Monotone double -> uint64 map: negative values flip entirely, others
  /// flip the sign bit, so unsigned integer order == IEEE numeric order.
  static std::uint64_t orderedBits(double d) noexcept {
    std::uint64_t b = 0;
    static_assert(sizeof b == sizeof d);
    std::memcpy(&b, &d, sizeof b);
    return (b & kSignBit) != 0 ? ~b : (b | kSignBit);
  }

  static double keyOf(const Packed& p) noexcept {
    const std::uint64_t b =
        (p.key & kSignBit) != 0 ? (p.key ^ kSignBit) : ~p.key;
    double d = 0.0;
    std::memcpy(&d, &b, sizeof d);
    return d;
  }

  static bool less(const Packed& a, const Packed& b) noexcept {
    return a.key < b.key || (a.key == b.key && a.index < b.index);
  }

  /// Place `e` at or above `slot`, moving larger parents down into the hole.
  void siftUp(std::uint32_t slot, const Packed& e) noexcept {
    while (slot > 0) {
      const std::uint32_t parent = (slot - 1) / 2;
      if (!less(e, heap_[parent])) break;
      heap_[slot] = heap_[parent];
      pos_[heap_[slot].index] = slot;
      slot = parent;
    }
    heap_[slot] = e;
    pos_[e.index] = slot;
  }

  /// Place `e` at or below `slot`, moving smaller children up into the hole.
  void siftDown(std::uint32_t slot, const Packed& e) noexcept {
    const auto n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = 2 * slot + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
      if (!less(heap_[child], e)) break;
      heap_[slot] = heap_[child];
      pos_[heap_[slot].index] = slot;
      slot = child;
    }
    heap_[slot] = e;
    pos_[e.index] = slot;
  }

  std::vector<Packed> heap_;
  std::vector<std::uint32_t> pos_;  ///< Slot per index; kAbsent when out.
};

}  // namespace openspace
