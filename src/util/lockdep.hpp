#pragma once

/// \file lockdep.hpp
/// Runtime lock-order and blocking-hazard analyzer over the annotated
/// concurrency primitives (util/thread_annotations.hpp), in the lineage
/// of the Linux kernel's lockdep: every named Mutex belongs to a *lock
/// class* (all instances constructed with the same name share one), each
/// thread keeps a stack of the locks it currently holds, and every
/// "acquired B while holding A" observation records a directed edge
/// A -> B into a global lock-order graph. A new edge that closes a cycle
/// is a potential deadlock — reported with the complete cycle, the
/// acquisition call sites (file:line captured at the lock statement) and
/// the witnessing threads for both directions, even though the two runs
/// that created the inversion never actually collided.
///
/// On top of the same held-stack bookkeeping, lockdep detects the
/// blocking hazards Clang's per-function Thread Safety Analysis is
/// structurally blind to:
///   - a ThreadPool worker blocking on work scheduled into its own pool
///     (nested parallel_for; single-flight waits annotated by callers),
///   - CondVar::wait or an annotated blocking wait entered while holding
///     an unrelated lock,
///   - locks held longer than a configurable threshold (warning).
///
/// The primitives (Mutex/CondVar, ThreadPool, the single-flight grid-map
/// cache) call the inline hooks at the bottom of this header with their
/// call sites. Compile-time gated by the SCIDOCK_SYNC_ANALYSIS CMake
/// option: OFF (the default) compiles the analyzer out, every hook is the
/// bare operation or nothing, and the primitives carry no extra state —
/// zero bookkeeping on the hot path. With it ON the checks run on every
/// acquisition, cheap enough to leave on for the whole test suite
/// (bench_sync_analysis gates the overhead <= 5% on the full screen).
/// Data races are ThreadSanitizer's job (ci/check.sh tsan), not lockdep's.
///
/// Findings carry stable rule IDs through the lint::Diagnostics
/// machinery (LD001..LD005, see lint::rule_catalog() and
/// lint/sync_lint.hpp); chaos::InvariantChecker::check_sync asserts a
/// clean report after every sweep.

#include <future>
#include <mutex>
#include <source_location>
#include <string>
#include <string_view>
#include <vector>

#if defined(SCIDOCK_SYNC_ANALYSIS)
#define SCIDOCK_LOCKDEP_ENABLED 1
#else
#define SCIDOCK_LOCKDEP_ENABLED 0
#endif

namespace scidock::lockdep {

/// Call site of a lock, wait or flight, defaulted at each primitive's API.
using Site = std::source_location;

/// Hazard classes, in rule-ID order (LD001..LD005).
enum class HazardKind {
  kLockInversion,     ///< LD001: cycle in the lock-order graph
  kPoolSelfWait,      ///< LD002: worker blocks on work in its own pool
  kWaitWhileHolding,  ///< LD003: blocking wait entered with locks held
  kLongHold,          ///< LD004: lock held past the threshold (warning)
  kDuplicateClass,    ///< LD005: one class name registered from two sites
};

std::string_view to_string(HazardKind kind);
/// Stable diagnostic rule ID ("LD001".."LD005").
std::string_view rule_id(HazardKind kind);

/// One edge of a reported inversion cycle: `acquired` was locked at
/// `acquire_site` by thread `thread_id` while `held` (locked at
/// `held_site`) was still held.
struct CycleStep {
  std::string held;
  std::string acquired;
  std::string held_site;     ///< file:line
  std::string acquire_site;  ///< file:line
  unsigned long long thread_id = 0;
};

struct Finding {
  HazardKind kind = HazardKind::kLockInversion;
  bool is_error = true;   ///< long-holds and advisory notes are warnings
  std::string message;    ///< one-line summary
  std::string file;       ///< primary site ("" when unknown)
  int line = 0;
  std::vector<CycleStep> cycle;  ///< inversions only; closing edge first
  std::string details;    ///< formatted multi-line evidence
};

/// Monotone bookkeeping counters, exported through obs::MetricsRegistry
/// by obs::publish_sync_metrics (scidock_lockdep_* series).
struct CounterSnapshot {
  long long lock_classes = 0;
  long long acquisitions = 0;
  long long order_edges = 0;
  long long cond_waits = 0;
  long long pool_wait_checks = 0;
  long long blocking_waits = 0;
  long long findings_error = 0;
  long long findings_warning = 0;
};

/// True when the analyzer was compiled in (SCIDOCK_SYNC_ANALYSIS=ON).
constexpr bool compiled_in() { return SCIDOCK_LOCKDEP_ENABLED != 0; }

#if SCIDOCK_LOCKDEP_ENABLED

/// Class id shared by every Mutex constructed without a name. Anonymous
/// instances participate in held-stack hazards (wait-while-holding,
/// long-hold) but are excluded from the order graph: one class over many
/// unrelated instances would invent cycles that no execution can hit.
inline constexpr int kAnonymousClass = 0;

/// Find-or-create the lock class for `name`; instances sharing a name
/// share ordering state (the kernel-lockdep "class, not instance" rule).
/// A class is keyed by (name, registration site): every instance born
/// from one `Mutex m{"x"}` declaration shares a class, but a *second*
/// declaration reusing the name is rejected with an LD005 error and gets
/// its own class — silently merging two unrelated locks' order graphs
/// would corrupt LD001 cycle attribution. The site defaults to the
/// declaration that invoked the Mutex constructor.
int register_class(const char* name,
                   std::source_location site = std::source_location::current());

/// Runtime kill-switch (compiled-in builds only): bench_sync_analysis
/// turns lockdep off for its baseline arm. Enabled by default.
void set_enabled(bool enabled);
bool enabled();

/// Hold-duration threshold for LD004 warnings, seconds. <= 0 disables.
void set_long_hold_threshold(double seconds);
double long_hold_threshold();

/// Lock class a Mutex carries.
struct LockClass {
  int id = kAnonymousClass;
};
inline LockClass lock_class(const char* name, Site site) {
  return {register_class(name, site)};
}

// ---- hooks wired into the primitives (not for direct use) ----

/// Before the underlying lock: records the order edge from the top of
/// this thread's held stack, runs cycle detection, pushes the new lock.
void on_acquire(int class_id, const void* instance,
                std::source_location site);
/// After a successful try_lock: push without an edge (a failed try_lock
/// cannot deadlock, and a successful one imposes no wait-for ordering).
void on_try_acquired(int class_id, const void* instance,
                     std::source_location site);
/// Pop `instance` from the held stack; emits LD004 on a long hold.
void on_release(const void* instance);
/// CondVar::wait entry: LD003 if any *other* lock is held. The release/
/// re-acquire bookkeeping itself flows through the instrumented
/// unlock()/lock() that condition_variable_any::wait performs.
void on_cond_wait(const void* mutex_instance, std::source_location site);

// ---- pool / blocking-wait integration ----

/// Marks the current thread as a worker of `pool` for its lifetime
/// (installed at the top of ThreadPool::worker_loop).
class PoolWorkerScope {
 public:
  explicit PoolWorkerScope(const void* pool);
  ~PoolWorkerScope();
  PoolWorkerScope(const PoolWorkerScope&) = delete;
  PoolWorkerScope& operator=(const PoolWorkerScope&) = delete;

 private:
  const void* previous_;
};

/// Called by ThreadPool::parallel_for before blocking on its futures:
/// LD002 when the calling thread is a worker of the same pool (the
/// chunks it is about to wait for sit behind it in its own queue).
void on_pool_wait(const void* pool, std::source_location site);

/// Annotates a blocking wait on an out-of-band result (the single-flight
/// grid-map future, a channel, ...). Emits LD003 if any lock is held;
/// emits an LD002 *warning* when the waiting thread and the thread that
/// owns the awaited work (`owner_pool`, as captured at publish time) are
/// workers of the same pool — safe today only because the owner never
/// schedules into that pool, so the report keeps the pattern visible.
void on_blocking_wait(const char* what, const void* owner_pool,
                      std::source_location site);

/// Single-flight owner, as its flight keeps it for the waiters.
struct FlightOwner {
  const void* pool = nullptr;  ///< pool the owner is a worker of, if any
};
/// The calling thread became the owner of a single-flight result.
FlightOwner on_flight_claim();

// ---- reporting ----

std::vector<Finding> findings();
std::size_t finding_count(HazardKind kind);
CounterSnapshot counters();
/// No error-severity findings (warnings tolerated).
bool clean();
/// Human-readable report: counters, then every finding with its cycle
/// and call sites. Ends with "lockdep: clean" when nothing was found.
std::string format_report();
/// Clear findings, the order graph and counters (lock classes survive:
/// they are baked into live Mutex instances). Per-thread held stacks are
/// untouched — call between runs, not mid-critical-section.
void reset();

#else  // ---- SCIDOCK_SYNC_ANALYSIS off: every hook is a no-op ----

inline constexpr int kAnonymousClass = 0;
/// Empty, so a Mutex is exactly a std::mutex.
struct LockClass {
  static constexpr int id = kAnonymousClass;
};
inline LockClass lock_class(const char*, Site) { return {}; }
inline void set_enabled(bool) {}
inline bool enabled() { return false; }
inline void set_long_hold_threshold(double) {}
inline double long_hold_threshold() { return 0.0; }

inline void on_acquire(int, const void*, std::source_location) {}
inline void on_try_acquired(int, const void*, std::source_location) {}
inline void on_release(const void*) {}
inline void on_cond_wait(const void*, std::source_location) {}

class PoolWorkerScope {
 public:
  explicit PoolWorkerScope(const void*) {}
};
inline void on_pool_wait(const void*, std::source_location) {}
inline void on_blocking_wait(const char*, const void*, std::source_location) {}
struct FlightOwner {
  static constexpr const void* pool = nullptr;
};
inline FlightOwner on_flight_claim() { return {}; }

inline std::vector<Finding> findings() { return {}; }
inline std::size_t finding_count(HazardKind) { return 0; }
inline CounterSnapshot counters() { return {}; }
inline bool clean() { return true; }
inline std::string format_report() {
  return "lockdep: disabled at build time (configure with "
         "-DSCIDOCK_SYNC_ANALYSIS=ON)\n";
}
inline void reset() {}

#endif  // SCIDOCK_LOCKDEP_ENABLED

// ---- the primitives' entry points ----

/// Lock `m`, the std::mutex inside the Mutex at `instance`. The order edge
/// is recorded before blocking, so an inversion is reported even on the
/// run that deadlocks.
inline void lock(std::mutex& m, const void* instance, LockClass cls,
                 Site site) {
  on_acquire(cls.id, instance, site);
  m.lock();
}

/// A successful try_lock is recorded without an order edge: it cannot
/// deadlock.
inline bool try_lock(std::mutex& m, const void* instance, LockClass cls,
                     Site site) {
  if (!m.try_lock()) return false;
  on_try_acquired(cls.id, instance, site);
  return true;
}

inline void unlock(std::mutex& m, const void* instance) {
  on_release(instance);
  m.unlock();
}

/// A non-owner takes a single-flight `result`, rethrowing the owner's
/// exception. When the flight was still running at lookup (`in_flight`)
/// the call may block: LD003 if the caller holds a lock, an LD002 warning
/// if `owner` is a worker of the caller's own pool.
template <typename T>
T await_flight(const std::shared_future<T>& result, FlightOwner owner,
               const char* what, bool in_flight,
               Site site = Site::current()) {
  if (in_flight) on_blocking_wait(what, owner.pool, site);
  return result.get();
}

}  // namespace scidock::lockdep
