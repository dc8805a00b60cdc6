#pragma once

/// \file thread_annotations.hpp
/// Clang Thread Safety Analysis support: attribute macros plus annotated
/// synchronisation primitives (Mutex, MutexLock, CondVar) that make lock
/// discipline checkable at compile time.
///
/// Under Clang the build adds -Wthread-safety -Werror=thread-safety (see
/// the top-level CMakeLists.txt), so an unguarded access to a
/// SCIDOCK_GUARDED_BY member, a missing SCIDOCK_REQUIRES caller lock or a
/// double release fails the build. Under GCC (and any compiler without
/// the capability attributes) every macro expands to nothing and Mutex /
/// MutexLock behave exactly like std::mutex / std::lock_guard.
///
/// Every lock, unlock and wait is also one sync event, with its call site,
/// for the runtime analyzers (util/sync_events.hpp). With the
/// SCIDOCK_SYNC_ANALYSIS CMake option ON, construct a Mutex with a name —
/// `Mutex mutex_{"prov.store"}` — to give it a lockdep lock class;
/// acquisitions then record order edges and happens-before edges, and
/// inversions, hazards and races are reported with their sites. With the
/// option OFF (default) the name and sites are discarded and the
/// primitives compile down to exactly the std equivalents.
///
/// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/sync_events.hpp"

#if defined(__clang__)
#define SCIDOCK_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SCIDOCK_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a class as a lockable capability ("mutex" in diagnostics).
#define SCIDOCK_CAPABILITY(x) SCIDOCK_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define SCIDOCK_SCOPED_CAPABILITY SCIDOCK_THREAD_ANNOTATION(scoped_lockable)

/// Data member that may only be touched while holding the given capability.
#define SCIDOCK_GUARDED_BY(x) SCIDOCK_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by the capability.
#define SCIDOCK_PT_GUARDED_BY(x) SCIDOCK_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that must be called with the capability held / not held.
#define SCIDOCK_REQUIRES(...) \
  SCIDOCK_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SCIDOCK_EXCLUDES(...) \
  SCIDOCK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function that acquires / releases the capability itself.
#define SCIDOCK_ACQUIRE(...) \
  SCIDOCK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SCIDOCK_RELEASE(...) \
  SCIDOCK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SCIDOCK_TRY_ACQUIRE(...) \
  SCIDOCK_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Escape hatch for intentionally unchecked code (document why at use).
#define SCIDOCK_NO_THREAD_SAFETY_ANALYSIS \
  SCIDOCK_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace scidock {

/// std::mutex wrapper the analysis understands. Lock it through MutexLock
/// (or CondVar::wait) so acquire/release pairing is compiler-checked.
/// Name it at construction so lockdep reports read `prov.store`, not
/// `mutex@0x7f...`; same name = same lock class (ordering is validated
/// per class, as in kernel lockdep).
class SCIDOCK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  /// The defaulted site lands on the declaration that invokes this
  /// constructor (the member initializer / variable definition) —
  /// lockdep keys lock classes on (name, site) so a second declaration
  /// reusing a name is an LD005 error, and racer names its
  /// release→acquire edges after the same string.
  explicit Mutex(const char* name, sync::Site site = sync::Site::current())
      : class_(sync::on_mutex_create(this, name, site)) {}
  ~Mutex() { sync::on_mutex_destroy(this, sync::Site::current()); }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock(sync::Site site = sync::Site::current()) SCIDOCK_ACQUIRE() {
    sync::lock(m_, this, class_, site);
  }
  void unlock(sync::Site site = sync::Site::current()) SCIDOCK_RELEASE() {
    sync::unlock(m_, this, site);
  }
  bool try_lock(sync::Site site = sync::Site::current())
      SCIDOCK_TRY_ACQUIRE(true) {
    return sync::try_lock(m_, this, class_, site);
  }

 private:
  std::mutex m_;
  [[no_unique_address]] sync::LockClass class_;
};

/// RAII lock for Mutex — the annotated counterpart of std::lock_guard.
class SCIDOCK_SCOPED_CAPABILITY MutexLock {
 public:
  /// The defaulted site captures the MutexLock statement itself — that is
  /// the site lockdep prints in cycle reports.
  explicit MutexLock(Mutex& mutex, sync::Site site = sync::Site::current())
      SCIDOCK_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.lock(site);
  }
  ~MutexLock() SCIDOCK_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable for Mutex. wait() requires the capability: callers
/// hold the lock (via MutexLock), and the analysis verifies it. The
/// predicate loop lives at the call site so guarded reads stay checkable:
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.wait(mutex_);   // ready_ GUARDED_BY(mutex_)
class CondVar {
 public:
  /// Atomically release `mutex`, sleep, and re-acquire before returning.
  /// Entering a wait while holding any *other* tracked lock is LD003; the
  /// release/re-acquire bookkeeping flows through the instrumented
  /// unlock()/lock() the wait performs.
  void wait(Mutex& mutex, sync::Site site = sync::Site::current())
      SCIDOCK_REQUIRES(mutex) {
    sync::on_cond_wait(&mutex, site);
    cv_.wait(mutex);
  }

  /// Timed wait (group-commit flusher heartbeats). Same hazard checks as
  /// wait(); returns std::cv_status::timeout when the duration elapsed.
  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& mutex,
                          const std::chrono::duration<Rep, Period>& rel_time,
                          sync::Site site = sync::Site::current())
      SCIDOCK_REQUIRES(mutex) {
    sync::on_cond_wait(&mutex, site);
    return cv_.wait_for(mutex, rel_time);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace scidock
