#pragma once

/// \file racer.hpp
/// Deterministic happens-before race & determinism analyzer over the
/// annotated concurrency primitives, in the lineage of FastTrack/TSan:
/// every thread carries a vector clock, every synchronisation point we
/// already own advances it — named-Mutex release→acquire edges
/// (thread_annotations.hpp), ThreadPool task fork/start/finish/join
/// edges (thread_pool.hpp), the single-flight grid-map promise handoff
/// and the prov WAL flusher thread — and every access to a *tracked*
/// shared object (racer::Cell<T> or SCIDOCK_RACER_TRACK) is checked
/// against the object's shadow state: a write must happen-after every
/// prior access, a read must happen-after the last write.
///
/// Unordered pairs are reported with both access sites (file:line), the
/// locks held at each, and a missing-edge diagnosis:
///   - RC001 write-write race,
///   - RC002 read-write race,
///   - RC003 unsynchronized publish: the first time another thread sees
///     the object there is no happens-before edge since its last write
///     (classic "constructed here, used over there, nothing in between"),
///   - RC004 order-nondeterminism: a named reduction (FEB/score
///     accumulation, AutoGrid slab merge, sharded SQL aggregation merge)
///     produced different per-key contributions across runs/thread
///     counts — the bit-identity killer the kernel-equivalence suite can
///     detect but not attribute. Reductions record (key, value-hash)
///     pairs via on_reduction(); snapshots from a 1-thread and an
///     N-thread run are diffed by compare_reduction_snapshots(), which
///     names the culprit reduction and first differing key. A duplicate
///     key with a conflicting hash inside one run is reported
///     immediately. The per-reduction *arrival-order* digest is also
///     kept: when contributions match but arrive in a different order
///     the comparison records an informational note (benign for
///     commutative merges, the smoking gun for float accumulation).
///
/// The primitives reach the sync hooks only through the sync-event layer
/// (util/sync_events.hpp). Compile-time gated together with lockdep by
/// the SCIDOCK_SYNC_ANALYSIS CMake option: OFF (the default) makes every
/// hook in this header an empty inline, the Cell<T> wrapper exactly a T,
/// and leaves no shadow state — zero cost on the hot path. With it ON
/// the checks run on every tracked access (bench_sync_analysis gates the
/// overhead <= 10% on the full screen).
///
/// Findings carry stable rule IDs through lint::Diagnostics (RC001..
/// RC004, see lint::rule_catalog() and lint/sync_lint.hpp);
/// chaos::InvariantChecker::check_sync asserts a clean report after
/// every sweep, and chaos_profile_racer() perturbs task completion
/// order under a fixed seed so interleaving coverage is reproducible.

#include <cstdint>
#include <map>
#include <memory>
#include <source_location>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(SCIDOCK_SYNC_ANALYSIS)
#define SCIDOCK_RACER_ENABLED 1
#else
#define SCIDOCK_RACER_ENABLED 0
#endif

namespace scidock::racer {

/// Report classes, in rule-ID order (RC001..RC004).
enum class ReportKind {
  kWriteWrite,            ///< RC001: two writes with no HB edge between
  kReadWrite,             ///< RC002: read and write with no HB edge
  kUnsyncPublish,         ///< RC003: object crossed threads unsynchronized
  kOrderNondeterminism,   ///< RC004: reduction result depends on schedule
};

std::string_view to_string(ReportKind kind);
/// Stable diagnostic rule ID ("RC001".."RC004").
std::string_view rule_id(ReportKind kind);

struct Finding {
  ReportKind kind = ReportKind::kWriteWrite;
  bool is_error = true;  ///< order-only digest notes are warnings
  std::string message;   ///< one-line summary
  std::string object;    ///< tracked-object or reduction name
  std::string file;      ///< current (second) access site
  int line = 0;
  std::string prior_file;  ///< prior (first) access site; "" for RC004
  int prior_line = 0;
  std::string details;  ///< both sites, held locks, missing-edge diagnosis
};

/// Monotone bookkeeping counters, exported through obs::MetricsRegistry
/// by obs::publish_sync_metrics (scidock_racer_* series).
struct CounterSnapshot {
  long long threads = 0;         ///< thread slots ever registered
  long long sync_objects = 0;    ///< mutexes + ad-hoc HB ids seen
  long long cells = 0;           ///< tracked shared objects ever seen
  long long reads = 0;
  long long writes = 0;
  long long mutex_edges = 0;     ///< release→acquire joins applied
  long long task_edges = 0;      ///< fork + join edges applied
  long long hb_edges = 0;        ///< ad-hoc release→acquire joins
  long long reduction_records = 0;
  long long findings_error = 0;
  long long findings_warning = 0;
};

/// Per-reduction deterministic digest: the keyed canonical form (what
/// compare_reduction_snapshots() diffs) plus the arrival-order digest.
struct ReductionDigest {
  long long records = 0;
  std::uint64_t order_digest = 0;            ///< sensitive to arrival order
  std::map<std::uint64_t, std::uint64_t> keyed;  ///< key → value hash
};
/// name → digest, as captured by reduction_snapshot().
using ReductionSnapshot = std::map<std::string, ReductionDigest>;

/// True when the analyzer was compiled in (SCIDOCK_SYNC_ANALYSIS=ON).
constexpr bool compiled_in() { return SCIDOCK_RACER_ENABLED != 0; }

#if SCIDOCK_RACER_ENABLED

/// Runtime kill-switch (compiled-in builds only): bench_sync_analysis
/// turns racer off for its baseline and lockdep-only arms. Enabled by
/// default.
void set_enabled(bool enabled);
bool enabled();

// ---- synchronisation hooks (wired into the primitives) ----

/// Names the sync object at `id` (Mutex constructor registers itself so
/// diagnoses read "prov.shard", not "sync@0x7f..."). Idempotent.
void register_sync(const void* id, const char* name);
/// Forget a sync object (Mutex destructor): its address may be reused.
void unregister_sync(const void* id);

/// After the underlying lock: join the acquirer's clock with the lock's
/// release clock, and push the lock onto the held list (diagnosis).
void on_mutex_acquire(const void* id);
/// Before the underlying unlock: fold the holder's clock into the lock's
/// release clock, bump the holder's epoch, pop the held list.
void on_mutex_release(const void* id);

/// Ad-hoc release→acquire edge keyed on any stable address (the
/// single-flight MapFlight promise, a channel, ...). `what` names the
/// handshake in diagnoses. Release before publishing, acquire after
/// observing.
void on_hb_release(const void* id, const char* what);
void on_hb_acquire(const void* id, const char* what);

// ---- pool / thread fork-join edges ----

/// Opaque fork token: captured in the spawning thread, carried with the
/// task, redeemed in the executing thread (start) and at join.
struct TaskEdge {
  std::shared_ptr<void> state;  ///< null when the analyzer is disabled
};

/// Spawn point (ThreadPool::submit, std::thread launch): snapshots the
/// spawner's clock into the edge and bumps the spawner's epoch.
TaskEdge on_task_spawn();
/// Task body entry in the executing thread: join with the fork snapshot.
void on_task_start(const TaskEdge& edge);
/// Task body exit: snapshot the executing thread's clock into the edge
/// and bump its epoch, so a joiner can happen-after the whole task.
void on_task_finish(const TaskEdge& edge);
/// After future.get()/thread.join(): join with the finish snapshot.
void on_task_join(const TaskEdge& edge);

/// RAII start/finish pair around a task body.
class TaskRun {
 public:
  explicit TaskRun(const TaskEdge& edge) : edge_(edge) {
    on_task_start(edge_);
  }
  ~TaskRun() { on_task_finish(edge_); }
  TaskRun(const TaskRun&) = delete;
  TaskRun& operator=(const TaskRun&) = delete;

 private:
  const TaskEdge& edge_;
};

// ---- tracked shared objects ----

/// Register shadow state for the object at `addr`. The registration
/// counts as the initial write (construction publishes the object).
/// `name` may be null: diagnoses then fall back to the track site.
void track(const void* addr, const char* name,
           std::source_location site = std::source_location::current());
/// Drop shadow state (destructor): the address may be reused.
void untrack(const void* addr);

/// Check + record an access. Unknown addresses self-register on first
/// access (the first access becomes the baseline). Hooks are called
/// BEFORE the actual load/store so the analyzer's own internal lock
/// cannot manufacture a happens-before edge that hides the race from
/// ThreadSanitizer in cross-check builds.
void on_read(const void* addr,
             std::source_location site = std::source_location::current());
void on_write(const void* addr,
              std::source_location site = std::source_location::current());

// ---- reductions (RC004) ----

/// Record one contribution to the named reduction: `key` identifies the
/// logical slot (pair id, slab index, shard index), `value_hash` the
/// bit pattern contributed. Same key + different hash within a run is
/// an immediate RC004 (two threads fought over one slot).
void on_reduction(const char* name, std::uint64_t key,
                  std::uint64_t value_hash);

/// Snapshot all reduction digests recorded since the last reset.
ReductionSnapshot reduction_snapshot();

/// Diff two snapshots (e.g. 1-thread vs N-thread runs of the same
/// workload). Key-set or per-key hash differences file an RC004 error
/// naming the reduction and the first differing key; identical keyed
/// digests with different arrival order file an informational warning.
/// Returns the number of error findings recorded.
int compare_reduction_snapshots(const ReductionSnapshot& base,
                                const ReductionSnapshot& other,
                                const char* base_label,
                                const char* other_label);

// ---- reporting ----

std::vector<Finding> findings();
std::size_t finding_count(ReportKind kind);
CounterSnapshot counters();
/// No error-severity findings (order-digest notes tolerated).
bool clean();
/// Human-readable report: counters, then every finding with both sites
/// and the missing-edge diagnosis. Ends with "racer: clean".
std::string format_report();
/// Clear findings, shadow cells, sync clocks, reductions and counters.
/// Thread slots and their clocks survive (they are baked into live
/// threads) — call between runs, not mid-flight.
void reset();

#else  // ---- SCIDOCK_SYNC_ANALYSIS off: every hook is a no-op ----

inline void set_enabled(bool) {}
inline bool enabled() { return false; }

inline void register_sync(const void*, const char*) {}
inline void unregister_sync(const void*) {}
inline void on_mutex_acquire(const void*) {}
inline void on_mutex_release(const void*) {}
inline void on_hb_release(const void*, const char*) {}
inline void on_hb_acquire(const void*, const char*) {}

struct TaskEdge {};
inline TaskEdge on_task_spawn() { return {}; }
inline void on_task_join(const TaskEdge&) {}
class TaskRun {
 public:
  explicit TaskRun(const TaskEdge&) {}
};

inline void track(const void*, const char*) {}
inline void untrack(const void*) {}
inline void on_read(const void*) {}
inline void on_write(const void*) {}

inline void on_reduction(const char*, std::uint64_t, std::uint64_t) {}
inline ReductionSnapshot reduction_snapshot() { return {}; }
inline int compare_reduction_snapshots(const ReductionSnapshot&,
                                       const ReductionSnapshot&, const char*,
                                       const char*) {
  return 0;
}

inline std::vector<Finding> findings() { return {}; }
inline std::size_t finding_count(ReportKind) { return 0; }
inline CounterSnapshot counters() { return {}; }
inline bool clean() { return true; }
inline std::string format_report() {
  return "racer: disabled at build time (configure with "
         "-DSCIDOCK_SYNC_ANALYSIS=ON)\n";
}
inline void reset() {}

#endif  // SCIDOCK_RACER_ENABLED

/// Shared value with racer shadow state. With the analyzer compiled in,
/// every read()/write()/mutate() goes through on_read/on_write (hook
/// first, access second); compiled out it is a bare T with zero-cost
/// inline accessors. The object name appears in findings.
template <typename T>
class Cell {
 public:
#if SCIDOCK_RACER_ENABLED
  explicit Cell(const char* name = nullptr,
                std::source_location site = std::source_location::current()) {
    track(&value_, name, site);
  }
  Cell(T initial, const char* name,
       std::source_location site = std::source_location::current())
      : value_(std::move(initial)) {
    track(&value_, name, site);
  }
  ~Cell() { untrack(&value_); }

  const T& read(
      std::source_location site = std::source_location::current()) const {
    on_read(&value_, site);
    return value_;
  }
  void write(T v,
             std::source_location site = std::source_location::current()) {
    on_write(&value_, site);
    value_ = std::move(v);
  }
  /// Mutable access counted as a write (increment, push_back, ...).
  T& mutate(std::source_location site = std::source_location::current()) {
    on_write(&value_, site);
    return value_;
  }
#else
  explicit Cell(const char* = nullptr) {}
  Cell(T initial, const char*) : value_(std::move(initial)) {}

  const T& read() const { return value_; }
  void write(T v) { value_ = std::move(v); }
  T& mutate() { return value_; }
#endif

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

 private:
  T value_{};
};

}  // namespace scidock::racer

/// Annotate an existing object (member, buffer slot) for race checking
/// without wrapping it in a Cell: TRACK at construction / ownership
/// hand-off, READ/WRITE at each access, UNTRACK before destruction.
#if SCIDOCK_RACER_ENABLED
#define SCIDOCK_RACER_TRACK(obj, name) ::scidock::racer::track(&(obj), (name))
#define SCIDOCK_RACER_UNTRACK(obj) ::scidock::racer::untrack(&(obj))
#define SCIDOCK_RACER_READ(obj) ::scidock::racer::on_read(&(obj))
#define SCIDOCK_RACER_WRITE(obj) ::scidock::racer::on_write(&(obj))
#else
#define SCIDOCK_RACER_TRACK(obj, name) ((void)0)
#define SCIDOCK_RACER_UNTRACK(obj) ((void)0)
#define SCIDOCK_RACER_READ(obj) ((void)0)
#define SCIDOCK_RACER_WRITE(obj) ((void)0)
#endif
