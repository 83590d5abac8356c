// Fixed thread pool + deterministic parallel-for.
//
// The snapshot engine and the Monte-Carlo samplers fan work out over a
// process-wide pool of worker threads. Determinism is preserved by
// construction: parallelFor always decomposes the index range into the
// same chunks regardless of how many threads execute them, so any kernel
// that derives its state (e.g. an RNG stream) from the chunk index and
// writes results only into its own chunk's slots produces bit-identical
// output whether it runs on one thread or sixteen.
//
// Thread count resolution, in priority order:
//   1. setParallelThreadCount(n)        (runtime override, used by tests)
//   2. OPENSPACE_THREADS environment variable
//   3. std::thread::hardware_concurrency()
// A count of 1 short-circuits to a serial in-line loop over the same
// chunk decomposition — the reference path the determinism tests compare
// against.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

namespace openspace {

/// Effective worker count parallelFor will use (>= 1).
int parallelThreadCount() noexcept;

/// Override the worker count at runtime. Values < 1 are clamped to 1;
/// 1 forces the serial fallback. Thread-safe.
void setParallelThreadCount(int n) noexcept;

/// Invoke `fn(begin, end)` over [0, count) split into chunks of `chunk`
/// indices (the final chunk may be short). Chunk boundaries are identical
/// in serial and parallel execution. Nested calls (from inside a worker)
/// and calls while another parallelFor is active on this thread run
/// serially in-line, so callers may compose freely without deadlock.
/// Chunks are claimed in ascending index order, and a thread finishes its
/// chunk before it claims another (ChunkTurns relies on both).
/// Exceptions thrown by `fn` are captured and rethrown to the caller
/// (first one wins). Throws InvalidArgumentError if chunk == 0.
void parallelFor(std::size_t count, std::size_t chunk,
                 const std::function<void(std::size_t, std::size_t)>& fn);

/// In-order sections inside one parallelFor: inOrder(c, fn) runs `fn` once
/// every chunk below c has run its section, then hands the turn to c + 1.
/// Work between sections overlaps freely, while the sections themselves
/// run one at a time in chunk order, as a serial loop would run them.
/// Every chunk must call inOrder exactly once, or fail() if it cannot get
/// there. The chunk whose turn it is was claimed before any waiting chunk,
/// so it has a thread running it and every wait ends. A section that
/// throws fails the turns: later sections are skipped (inOrder returns
/// false) and parallelFor rethrows the error.
class ChunkTurns {
 public:
  template <class Fn>
  bool inOrder(std::size_t chunk, Fn&& fn) {
    for (;;) {
      const std::size_t turn = next_.load(std::memory_order_acquire);
      if (turn == kFailed) return false;
      if (turn == chunk) break;
      next_.wait(turn, std::memory_order_acquire);
    }
    try {
      fn();
    } catch (...) {
      fail();
      throw;
    }
    // Only the turn's holder advances it, and never past a failure.
    std::size_t turn = chunk;
    next_.compare_exchange_strong(turn, chunk + 1, std::memory_order_release,
                                  std::memory_order_relaxed);
    next_.notify_all();
    return true;
  }

  /// Skip every section not yet run and wake every waiting chunk.
  void fail() noexcept {
    next_.store(kFailed, std::memory_order_release);
    next_.notify_all();
  }

 private:
  static constexpr std::size_t kFailed = ~std::size_t{0};

  std::atomic<std::size_t> next_{0};  ///< Chunk whose turn it is, or kFailed.
};

}  // namespace openspace
