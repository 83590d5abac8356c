// High-throughput event scheduler: a hierarchical timer wheel.
//
// TimerWheel is the library's only scheduler. Its executable spec is
// EventQueue, test-only code in the openspace_spec library
// (tests/spec/include/openspace/spec/event.hpp): a binary heap of
// heap-allocated std::function closures, O(log n) per operation with an
// allocation per event. At flow-simulator scale (tens of millions of
// events) both costs dominate the run. TimerWheel replaces them with
//
//  * POD event records in a slab arena — Payload must be trivially
//    copyable, records are recycled through a free list, and steady-state
//    scheduling allocates nothing;
//  * a hierarchy of 64-slot wheels (6 bits per level, 8 levels = 48 bits
//    of tick horizon): schedule/cancel are O(1), and advancing to the next
//    occupied instant is a bitmap scan (one rotr + countr_zero per level),
//    not a heap percolation.
//
// Ordering contract — identical to EventQueue's, and property-tested
// against it: events fire in ascending timestamp order, FIFO for equal
// timestamps. Timestamps are exact doubles; the tick quantization only
// buckets records, it never rounds firing times. Records that share a tick
// are drained through a small sorted buffer keyed by (tS, seq), so the
// global firing order is by (tS, seq) exactly as the legacy heap orders.
//
// Cancellation is O(1) and generation-checked: cancel() marks the record
// dead and invalidates its handle; the slot chains drop dead records
// lazily as the wheel sweeps over them.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include <openspace/core/ids.hpp>
#include <openspace/geo/error.hpp>

namespace openspace {

namespace detail {
struct TimerEventIdTag {};
}  // namespace detail

/// Cancellable handle for one TimerWheel event: packs a slab slot and a
/// generation stamp, so handles to fired/cancelled (recycled) records are
/// detected as stale instead of cancelling an unrelated event. A
/// default-constructed id is unset.
using TimerEventId = TaggedId<detail::TimerEventIdTag, std::uint64_t>;

/// Hierarchical timer wheel over POD payloads. `fire` callbacks receive
/// (double tS, const Payload&).
template <class Payload>
class TimerWheel {
  static_assert(std::is_trivially_copyable_v<Payload>,
                "TimerWheel payloads are slab-stored PODs; wrap non-trivial "
                "state in an index into caller-owned storage");

 public:
  /// `tickSeconds` is the bucketing granularity of level 0 (it bounds the
  /// sorted-buffer size per instant, not timestamp precision) and
  /// `originSeconds` is the initial now(). Throws InvalidArgumentError for
  /// a non-positive tick.
  explicit TimerWheel(double tickSeconds = 1e-6, double originSeconds = 0.0)
      : tickS_(tickSeconds), originS_(originSeconds), nowS_(originSeconds) {
    if (!(tickS_ > 0.0)) {
      throw InvalidArgumentError("TimerWheel: tick must be > 0");
    }
    for (auto& level : slots_) level.fill(kNil);
    bitmap_.fill(0);
  }

  /// Schedule `payload` at absolute time `tS`. Throws InvalidArgumentError
  /// if tS is before now() (no time travel — same contract as EventQueue).
  TimerEventId schedule(double tS, const Payload& payload) {
    if (tS < nowS_) {
      throw InvalidArgumentError("TimerWheel::schedule: time is in the past");
    }
    std::uint64_t tick = tickOf(tS);
    // now() can sit mid-tick after a bounded run(); a tick the sweep has
    // already drained still accepts new records at times >= now() — they
    // join the current instant's sorted buffer.
    if (tick < currentTick_) tick = currentTick_;
    const std::uint32_t idx = allocRecord();
    Rec& r = slab_[idx];
    r.tS = tS;
    r.seq = seq_++;
    r.tick = tick;
    r.live = 1;
    r.payload = payload;
    ++pending_;
    if (tick == currentTick_) {
      insertIntoDue(idx);
    } else {
      hashIn(idx, currentTick_);
    }
    return TimerEventId{(static_cast<std::uint64_t>(r.gen) << 32) |
                        (static_cast<std::uint64_t>(idx) + 1)};
  }

  /// Schedule `payload` `delayS` seconds from now.
  TimerEventId scheduleIn(double delayS, const Payload& payload) {
    return schedule(nowS_ + delayS, payload);
  }

  /// Cancel a pending event. Returns true if it was still pending; false
  /// for fired, already-cancelled, or stale/unset handles. O(1).
  bool cancel(TimerEventId id) {
    if (!id.isValid()) return false;
    const std::uint64_t raw = id.value();
    const std::uint64_t slot = (raw & 0xFFFFFFFFull);
    if (slot == 0 || slot > slab_.size()) return false;
    const std::uint32_t idx = static_cast<std::uint32_t>(slot - 1);
    Rec& r = slab_[idx];
    if (r.gen != static_cast<std::uint32_t>(raw >> 32) || !r.live) return false;
    r.live = 0;  // storage reclaimed lazily when the sweep reaches it
    --pending_;
    return true;
  }

  /// Fire at most one event. Returns false if nothing is pending.
  template <class Fire>
  bool step(Fire&& fire) {
    if (!refill(kNoBound)) return false;
    fireFront(fire);
    return true;
  }

  /// Fire every event with tS <= untilS, then advance now() to untilS.
  /// Returns the number of events fired.
  template <class Fire>
  std::size_t run(double untilS, Fire&& fire) {
    std::size_t n = 0;
    const std::uint64_t bound = untilS < nowS_ ? currentTick_ : tickOf(untilS);
    while (refill(bound)) {
      if (slab_[due_[dueCursor_]].tS > untilS) break;
      fireFront(fire);
      ++n;
    }
    if (nowS_ < untilS) nowS_ = untilS;
    return n;
  }

  /// Fire every pending event (no time bound). Returns the count.
  template <class Fire>
  std::size_t runAll(Fire&& fire) {
    std::size_t n = 0;
    while (step(fire)) ++n;
    return n;
  }

  double now() const noexcept { return nowS_; }
  bool empty() const noexcept { return pending_ == 0; }
  std::size_t pending() const noexcept { return pending_; }

  /// Invariant audit: throws StateError unless each level's bitmap bit is
  /// set exactly when that slot's chain is non-empty, every chained, free
  /// or queued due record index lies inside the slab, and each record sits
  /// in exactly one of a slot chain, the free list or the unfired due
  /// tail, with pending() counting the live ones. O(slab); for tests.
  void audit() const {
    std::vector<std::uint8_t> seen(slab_.size(), 0);
    std::size_t live = 0;
    const auto visit = [&](std::uint32_t idx, bool free) {
      if (idx >= slab_.size() || seen[idx] != 0 || (free && slab_[idx].live)) {
        throw StateError("TimerWheel::audit: record " + std::to_string(idx) +
                         " out of the slab, listed twice, or live and free");
      }
      seen[idx] = 1;
      live += slab_[idx].live;
    };
    for (std::size_t level = 0; level < kLevels; ++level) {
      for (std::size_t slot = 0; slot < kSlots; ++slot) {
        std::uint32_t idx = slots_[level][slot];
        if (((bitmap_[level] >> slot) & 1u) != (idx != kNil ? 1u : 0u)) {
          throw StateError("TimerWheel::audit: bitmap disagrees with chain");
        }
        for (; idx != kNil; idx = slab_[idx].next) visit(idx, false);
      }
    }
    for (std::size_t i = dueCursor_; i < due_.size(); ++i) visit(due_[i], false);
    for (std::uint32_t idx = freeHead_; idx != kNil; idx = slab_[idx].next) {
      visit(idx, true);
    }
    if (std::find(seen.begin(), seen.end(), 0) != seen.end() ||
        live != pending_) {
      throw StateError("TimerWheel::audit: leaked record or pending() drift");
    }
  }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;  // 64
  static constexpr int kLevels = 8;              // 48-bit tick horizon
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint64_t kNoBound =
      std::numeric_limits<std::uint64_t>::max();

  struct Rec {
    double tS = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t tick = 0;
    std::uint32_t next = kNil;  ///< Slot chain / free list link.
    std::uint32_t gen = 1;      ///< Handle generation; bumped on recycle.
    std::uint8_t live = 0;
    Payload payload{};
  };

  std::uint64_t tickOf(double tS) const noexcept {
    if (tS <= originS_) return 0;
    const double q = (tS - originS_) / tickS_;  // units: tick count
    // Clamp far-future times into the representable horizon; level-7 slots
    // re-hash on every wheel revolution, so huge ticks stay correct.
    constexpr double kMax = 9.0e18;  // units: tick count, < 2^63
    return q >= kMax ? static_cast<std::uint64_t>(kMax)
                     : static_cast<std::uint64_t>(q);
  }

  std::uint32_t allocRecord() {
    if (freeHead_ != kNil) {
      const std::uint32_t idx = freeHead_;
      freeHead_ = slab_[idx].next;
      return idx;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }

  void freeRecord(std::uint32_t idx) {
    Rec& r = slab_[idx];
    r.live = 0;
    ++r.gen;  // invalidate outstanding handles
    r.next = freeHead_;
    freeHead_ = idx;
  }

  /// (level, slot) bucket of a record `delta` ticks ahead of the sweep.
  static std::size_t levelOf(std::uint64_t delta) noexcept {
    const auto level =
        static_cast<std::size_t>(std::bit_width(delta) - 1) / kSlotBits;
    return level < kLevels ? level : kLevels - 1;
  }

  /// Hash a record into its wheel bucket relative to current tick `base`.
  void hashIn(std::uint32_t idx, std::uint64_t base) {
    Rec& r = slab_[idx];
    const std::size_t level = levelOf(r.tick - base);  // delta >= 1
    const auto slot = static_cast<std::size_t>(
        (r.tick >> (kSlotBits * level)) & (kSlots - 1));
    r.next = slots_[level][slot];
    slots_[level][slot] = idx;
    bitmap_[level] |= (1ull << slot);
  }

  /// Insert into the current instant's sorted buffer, keeping (tS, seq)
  /// order. New records always carry the largest seq, so upper_bound on tS
  /// lands them after every equal-time record — the FIFO tie-break.
  void insertIntoDue(std::uint32_t idx) {
    const double tS = slab_[idx].tS;
    const auto pos = std::upper_bound(
        due_.begin() + static_cast<std::ptrdiff_t>(dueCursor_), due_.end(), tS,
        [this](double lhsS, std::uint32_t i) { return lhsS < slab_[i].tS; });
    due_.insert(pos, idx);
  }

  /// Sort freshly loaded due records by (tS, seq).
  void sortDue() {
    std::sort(due_.begin(), due_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                const Rec& ra = slab_[a];
                const Rec& rb = slab_[b];
                return ra.tS < rb.tS || (ra.tS == rb.tS && ra.seq < rb.seq);
              });
  }

  /// Enter tick T (> currentTick_): cascade every level whose block newly
  /// changes, then load T's level-0 slot into the due buffer.
  void enter(std::uint64_t T) {
    // The caller (refill) guarantees the due buffer is fully consumed.
    due_.clear();
    dueCursor_ = 0;
    for (std::size_t level = kLevels - 1; level >= 1; --level) {
      const std::size_t shift = kSlotBits * level;
      if ((currentTick_ >> shift) == (T >> shift)) continue;
      const auto slot = static_cast<std::size_t>((T >> shift) & (kSlots - 1));
      std::uint32_t idx = detach(level, slot);
      while (idx != kNil) {
        const std::uint32_t nxt = slab_[idx].next;
        reinsert(idx, T);
        idx = nxt;
      }
    }
    currentTick_ = T;
    const auto slot0 = static_cast<std::size_t>(T & (kSlots - 1));
    std::uint32_t idx = detach(0, slot0);
    while (idx != kNil) {
      const std::uint32_t nxt = slab_[idx].next;
      reinsert(idx, T);
      idx = nxt;
    }
    sortDue();
  }

  /// Detach a slot's whole chain, clearing its occupancy bit.
  std::uint32_t detach(std::size_t level, std::size_t slot) {
    const std::uint32_t head = slots_[level][slot];
    slots_[level][slot] = kNil;
    bitmap_[level] &= ~(1ull << slot);
    return head;
  }

  /// Re-home one detached record relative to new current tick T.
  void reinsert(std::uint32_t idx, std::uint64_t T) {
    Rec& r = slab_[idx];
    if (!r.live) {
      freeRecord(idx);
      return;
    }
    if (r.tick <= T) {
      due_.push_back(idx);  // due this instant; sorted by the caller
      return;
    }
    hashIn(idx, T);
  }

  /// Ensure due_[dueCursor_] references a live record, advancing the wheel
  /// as far as `boundTick` if needed. Returns false when nothing (more)
  /// fires within the bound.
  bool refill(std::uint64_t boundTick) {
    for (;;) {
      while (dueCursor_ < due_.size()) {
        const std::uint32_t idx = due_[dueCursor_];
        if (slab_[idx].live) return true;
        freeRecord(idx);  // cancelled while queued in the due buffer
        ++dueCursor_;
      }
      if (pending_ == 0) return false;
      const std::uint64_t next = nextOccupiedTick();
      if (next == kNoBound) return false;  // only dead records remained
      if (next > boundTick) {
        // All of (currentTick_, boundTick] is verifiably empty; park the
        // sweep at the bound so a later bounded run resumes cheaply.
        if (boundTick != kNoBound && boundTick > currentTick_)
          enter(boundTick);
        return false;
      }
      enter(next);
    }
  }

  /// Earliest tick > currentTick_ whose slot could hold records: exact at
  /// level 0, block-entry granular at higher levels (entering the block
  /// cascades the slot down, re-running the search).
  std::uint64_t nextOccupiedTick() const {
    std::uint64_t best = kNoBound;
    {
      const auto off = static_cast<int>(currentTick_ & (kSlots - 1));
      const std::uint64_t w = std::rotr(bitmap_[0], off) & ~1ull;
      if (w != 0) {
        best = currentTick_ +
               static_cast<std::uint64_t>(std::countr_zero(w));
      }
    }
    for (std::size_t level = 1; level < kLevels; ++level) {
      const std::size_t shift = kSlotBits * level;
      const std::uint64_t block = currentTick_ >> shift;
      const auto off = static_cast<int>(block & (kSlots - 1));
      const std::uint64_t w = std::rotr(bitmap_[level], off);
      std::uint64_t d;
      if ((w & ~1ull) != 0) {
        d = static_cast<std::uint64_t>(std::countr_zero(w & ~1ull));
      } else if ((w & 1ull) != 0) {
        d = kSlots;  // only wrap-around records: due next revolution
      } else {
        continue;
      }
      const std::uint64_t cand = (block + d) << shift;
      best = std::min(best, cand);
    }
    return best;
  }

  template <class Fire>
  void fireFront(Fire&& fire) {
    const std::uint32_t idx = due_[dueCursor_++];
    const Rec rec = slab_[idx];  // copy out before recycling the slot
    freeRecord(idx);
    --pending_;
    nowS_ = rec.tS;
    fire(rec.tS, rec.payload);
  }

  double tickS_;
  double originS_;
  double nowS_;
  std::uint64_t currentTick_ = 0;
  std::uint64_t seq_ = 0;
  std::size_t pending_ = 0;
  std::vector<Rec> slab_;
  std::uint32_t freeHead_ = kNil;
  std::array<std::array<std::uint32_t, kSlots>, kLevels> slots_;
  std::array<std::uint64_t, kLevels> bitmap_;
  std::vector<std::uint32_t> due_;  ///< currentTick_'s records, (tS, seq) sorted.
  std::size_t dueCursor_ = 0;
};

}  // namespace openspace
