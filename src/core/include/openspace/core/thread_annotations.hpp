// Compiler-enforced thread-safety annotations (Clang Thread Safety
// Analysis) and the annotated locking primitives the library uses in
// place of raw std::mutex.
//
// Why a wrapper exists at all: libstdc++'s std::mutex carries no
// `capability` attribute, so -Wthread-safety cannot reason about it.
// openspace::Mutex is a zero-overhead annotated shell around std::mutex;
// every mutex-holding component (the ThreadPool, SnapshotCache, the
// ConstellationSnapshot ISL cache, the FleetEphemeris and FootprintIndex2
// compile LRUs, each FootprintIndex2's certificate table) declares its
// guarded state with OPENSPACE_GUARDED_BY and takes the lock through
// MutexLock, and the clang build (CI lint job and
// the regular clang lane) compiles with -Wthread-safety as an error.
// Under gcc — which implements none of these attributes — every macro
// expands to nothing and Mutex/MutexLock behave exactly like
// std::mutex/std::lock_guard.
//
// Annotation conventions (DESIGN.md §12):
//  * data members touched under a lock get OPENSPACE_GUARDED_BY(mu);
//  * private helpers called with the lock held get OPENSPACE_REQUIRES(mu);
//  * public entry points that take the lock themselves get
//    OPENSPACE_EXCLUDES(mu) when re-entry would self-deadlock;
//  * condition waits go through ConditionVariable::wait(mu) inside an
//    explicit `while (!predicate)` loop, so the guarded reads in the
//    predicate are visible to the analysis under the held lock.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && !defined(SWIG)
#define OPENSPACE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define OPENSPACE_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a type as a lockable capability; the string names it in
/// diagnostics ("mutex 'mu_' is still held at the end of function ...").
#define OPENSPACE_CAPABILITY(x) OPENSPACE_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define OPENSPACE_SCOPED_CAPABILITY OPENSPACE_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define OPENSPACE_GUARDED_BY(x) OPENSPACE_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the given capability.
#define OPENSPACE_PT_GUARDED_BY(x) OPENSPACE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that must be called with the capability already held.
#define OPENSPACE_REQUIRES(...) \
  OPENSPACE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the capability and returns holding it.
#define OPENSPACE_ACQUIRE(...) \
  OPENSPACE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases the capability.
#define OPENSPACE_RELEASE(...) \
  OPENSPACE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the capability iff it returns the given value.
#define OPENSPACE_TRY_ACQUIRE(...) \
  OPENSPACE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function that must NOT be called while holding the capability
/// (it takes the lock itself; re-entry would self-deadlock).
#define OPENSPACE_EXCLUDES(...) \
  OPENSPACE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the named capability.
#define OPENSPACE_RETURN_CAPABILITY(x) \
  OPENSPACE_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: suppress the analysis for one function. Every use must
/// carry a comment explaining why the pattern is safe but inexpressible.
#define OPENSPACE_NO_THREAD_SAFETY_ANALYSIS \
  OPENSPACE_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace openspace {

class ConditionVariable;

/// Annotated drop-in for std::mutex. Same size, same semantics, but the
/// clang analysis can track acquire/release through it.
class OPENSPACE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() OPENSPACE_ACQUIRE() { m_.lock(); }
  void unlock() OPENSPACE_RELEASE() { m_.unlock(); }
  bool try_lock() OPENSPACE_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class ConditionVariable;
  std::mutex m_;
};

/// Annotated scoped lock (the std::lock_guard shape; no unlock/relock,
/// no deferral — the one pattern the whole library uses).
class OPENSPACE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) OPENSPACE_ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
  }
  ~MutexLock() OPENSPACE_RELEASE() { mu_->unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable paired with openspace::Mutex. wait() takes the
/// already-held Mutex so callers write the canonical analyzable loop:
///
///   MutexLock lock(mu_);
///   while (!condition) cv_.wait(mu_);   // guarded reads visible to TSA
///
/// rather than hiding the guarded predicate inside a lambda the analysis
/// cannot attribute to the lock.
class ConditionVariable {
 public:
  ConditionVariable() = default;
  ConditionVariable(const ConditionVariable&) = delete;
  ConditionVariable& operator=(const ConditionVariable&) = delete;

  /// Atomically release `mu`, sleep, and re-acquire before returning.
  /// Spurious wakeups happen; always wait in a predicate loop.
  void wait(Mutex& mu) OPENSPACE_REQUIRES(mu) {
    // Adopt the caller's hold for the duration of the wait, then release
    // the unique_lock's ownership again — the caller's MutexLock remains
    // the one true owner and the analysis never sees a lock-state change.
    std::unique_lock<std::mutex> inner(mu.m_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace openspace
