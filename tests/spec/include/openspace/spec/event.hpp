// Discrete-event scheduler spec (test-only; openspace_spec).
//
// EventQueue is the reference scheduler: a (time, sequence) priority queue
// of type-erased handlers. The library's only scheduler is the hierarchical
// timer wheel in net/scheduler.hpp; property tests and bench_flow_sim pin the
// wheel's firing order to this queue's, so EventQueue stays authoritative for
// the ordering semantics both implement.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>

#include <openspace/core/ids.hpp>

namespace openspace {

namespace detail {
struct EventIdTag {};
}  // namespace detail

/// Cancellable handle for one scheduled event. Ids are unique for the
/// lifetime of their queue (never reused); a default-constructed id is
/// unset.
using EventId = TaggedId<detail::EventIdTag, std::uint64_t>;

/// A monotonic discrete-event queue.
///
/// Ordering guarantee (API contract, shared with TimerWheel): events fire
/// in ascending time, and events scheduled for the *same* time fire in the
/// order they were scheduled (FIFO tie-break). This keeps runs
/// deterministic: a simulation's behavior is a pure function of its inputs,
/// never of container iteration order.
class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Schedule `fn` at absolute time `tSeconds`; returns a handle usable
  /// with cancel(). Throws InvalidArgumentError if tSeconds is before
  /// now() (no time travel).
  EventId schedule(double tSeconds, Handler fn);

  /// Schedule `fn` `delayS` seconds from now.
  EventId scheduleIn(double delayS, Handler fn);

  /// Cancel a pending event. Returns true if the event was still pending
  /// (it will not fire); false if it already fired, was already cancelled,
  /// or the id is unset/unknown. O(1) amortized: the entry is dropped
  /// lazily when it surfaces.
  bool cancel(EventId id);

  /// Run until the queue empties or simulated time would exceed `untilS`.
  /// Returns the number of events executed (cancelled events don't count).
  std::size_t run(double untilS);

  /// Run every pending event (no time bound).
  std::size_t runAll();

  /// Execute at most one event. Returns false if the queue is empty.
  bool step();

  double now() const noexcept { return nowS_; }
  bool empty() const noexcept { return live_.empty(); }
  std::size_t pending() const noexcept { return live_.size(); }

 private:
  struct Ev {
    double tS;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const noexcept {
      return a.tS > b.tS || (a.tS == b.tS && a.seq > b.seq);
    }
  };

  /// Drop cancelled entries off the top of the heap.
  void prune();

  std::priority_queue<Ev, std::vector<Ev>, Later> events_;
  /// Sequence numbers of still-pending (not fired, not cancelled) events.
  std::unordered_set<std::uint64_t> live_;
  double nowS_ = 0.0;
  std::uint64_t seq_ = 0;
};

}  // namespace openspace
