#pragma once

/// \file prov.hpp
/// The provenance repository: a PROV-Wf relational schema (Missier et al.;
/// Oliveira et al.) hosted on the scidock SQL engine — the PostgreSQL
/// stand-in the paper's Queries 1 and 2 run against.
///
/// Schema (column names match the paper's queries exactly):
///   hmachine    (vmid, type, cores, speed_factor)
///   hworkflow   (wkfid, tag, description, expdir, starttime, endtime)
///   hactivity   (actid, wkfid, tag, activation, op)
///   hactivation (taskid, actid, wkfid, starttime, endtime, status,
///                vmid, exitcode, attempts, workload)
///   hfile       (fileid, wkfid, actid, taskid, fname, fsize, fdir)
///   hvalue      (valueid, taskid, key, value_num, value_text)
///
/// Timestamps are doubles: seconds since the experiment epoch, so the
/// paper's `extract('epoch' from (t.endtime - t.starttime))` evaluates to
/// the activation duration in seconds.
///
/// Storage model (DESIGN.md §12): the store is split into N shards, each
/// with its own lock and database. Fact tables (hactivation, hfile,
/// hvalue) are partitioned by hash(taskid); dimension tables (hworkflow,
/// hactivity, hmachine) are replicated into every shard so per-shard
/// joins are complete. With a VFS attached, every mutation is framed
/// into a per-shard write-ahead log (prov/wal.hpp) — batched by a group
/// -commit flusher thread or written synchronously — and reopening the
/// same directory rebuilds the store by replay, truncating any torn
/// tail the chaos harness (or a real crash) left behind.

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "prov/wal.hpp"
#include "sql/engine.hpp"
#include "sql/table.hpp"
#include "util/thread_annotations.hpp"
#include "vfs/vfs.hpp"

namespace scidock::prov {

/// Activation lifecycle status values stored in hactivation.status.
inline constexpr std::string_view kStatusRunning = "RUNNING";
inline constexpr std::string_view kStatusFinished = "FINISHED";
inline constexpr std::string_view kStatusFailed = "FAILED";
inline constexpr std::string_view kStatusAborted = "ABORTED";  ///< hang killed

/// SQL builders for metrics <-> provenance reconciliation (DESIGN.md §9).
/// The counts these return must equal the scidock_executor_* counters of
/// the run — chaos::InvariantChecker::check_metrics automates the
/// comparison.
/// Latest wkfid recorded under `tag` (tags must not contain quotes).
std::string workflow_id_sql(std::string_view tag);
/// count(*) over the run's hactivation rows (== activations started).
std::string activation_count_sql(long long wkfid);
/// (status, count(*)) per status for the run.
std::string activations_by_status_sql(long long wkfid);
/// count(*) of the run's rows with attempts > 1 (== activations retried).
std::string retried_activation_count_sql(long long wkfid);
/// count(*) of the run's FINISHED activations of one activity tag — a
/// two-table equi-join (hactivation x hactivity), which the SQL engine
/// executes through its hash-join fast path. Reconciles the grid-map
/// cache counters: hits + misses + inflight_waits over the AutoGrid
/// stage must equal this count.
std::string finished_activation_count_sql(long long wkfid,
                                          std::string_view activity_tag);

struct ProvenanceStoreOptions {
  /// Number of lock-independent shards (>= 1). One shard reproduces the
  /// original single-lock store exactly.
  std::size_t shard_count = 1;
  /// Write-ahead log target; nullptr = volatile in-memory store (the
  /// default-constructed behaviour).
  vfs::SharedFileSystem* vfs = nullptr;
  /// WAL root; shard k logs under `<wal_dir>/shard-<k>/`.
  std::string wal_dir = "/prov";
  /// true: a dedicated flusher thread batches frames and commits them
  /// in groups (sustained-ingest mode). false: every record is appended
  /// and synced inline before the recording call returns.
  bool group_commit = true;
  /// Flusher heartbeat: a commit happens at least this often while
  /// records are pending.
  int group_commit_interval_ms = 2;
  /// Pending-byte threshold that wakes the flusher early.
  std::size_t group_commit_max_bytes = 256 * 1024;
  /// Segment rotation threshold (seal + rename, then a fresh segment).
  std::size_t segment_max_bytes = 8u << 20;
};

/// What reopening a WAL directory found (ProvenanceStore::last_recovery).
struct RecoveryReport {
  std::size_t shards = 0;
  std::size_t segments = 0;
  std::size_t records = 0;          ///< replayed into the store
  std::size_t truncated_bytes = 0;  ///< torn tails discarded
  std::size_t orphan_rows = 0;      ///< referential-integrity prunes
};

/// Monotone WAL-side counters (ProvenanceStore::durability_stats).
struct DurabilityStats {
  long long records_logged = 0;   ///< framed (pending or durable)
  long long records_durable = 0;  ///< committed + synced
  long long bytes_durable = 0;
  long long group_commits = 0;
  long long segment_rotations = 0;
  long long pending_bytes = 0;    ///< currently buffered, not yet durable
};

class ProvenanceStore {
 public:
  /// Volatile single-shard store (back-compatible default).
  ProvenanceStore();
  /// Sharded and/or durable store. With a VFS attached, replays any
  /// existing WAL under `wal_dir` (crash recovery) before accepting new
  /// records, then continues appending to fresh segments.
  explicit ProvenanceStore(ProvenanceStoreOptions options);
  ~ProvenanceStore();

  ProvenanceStore(const ProvenanceStore&) = delete;
  ProvenanceStore& operator=(const ProvenanceStore&) = delete;

  /// Attach (or detach, with nullptr) a metrics registry; the store then
  /// counts every recorded row and query under scidock_prov_*. Call
  /// before the run starts — installation is not retroactive.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Run any SQL against the repository (the user-facing query interface;
  /// safe to call *during* workflow execution — the paper's runtime
  /// steering feature). Sharded stores execute SELECTs through the
  /// distributed planner (sql/sharded.hpp) and reject other statements.
  sql::ResultSet query(std::string_view sql_text);

  // ---- recording API (thread-safe) ----
  long long begin_workflow(std::string_view tag, std::string_view description,
                           std::string_view expdir, double now);
  void end_workflow(long long wkfid, double now);

  long long register_activity(long long wkfid, std::string_view tag,
                              std::string_view activation_command,
                              std::string_view op);

  long long begin_activation(long long actid, long long wkfid, double now,
                             long long vmid, std::string_view workload);
  void end_activation(long long taskid, double now, std::string_view status,
                      int exitcode, int attempts);

  void record_machine(long long vmid, std::string_view type, int cores,
                      double speed_factor);
  void record_file(long long wkfid, long long actid, long long taskid,
                   std::string_view fname, std::size_t fsize,
                   std::string_view fdir);
  void record_value(long long taskid, std::string_view key, double value_num,
                    std::string_view value_text);

  /// Serialise the repository in W3C PROV-N notation (the standard the
  /// paper's PROV-Wf schema instantiates): workflows and activations as
  /// prov:Activity, files as prov:Entity with wasGeneratedBy, VMs as
  /// prov:Agent with wasAssociatedWith.
  std::string export_prov_n();

  // ---- durability / recovery surface ----
  std::size_t shard_count() const { return shards_.size(); }
  bool durable() const { return options_.vfs != nullptr; }
  /// True once a WAL write failed (e.g. a chaos-injected torn write).
  /// A crashed store rejects further records and flushes; reopen the
  /// directory with a fresh store to recover.
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  /// Force a group commit of everything recorded so far; returns once it
  /// is durable. Throws InvalidStateError if the store crashed.
  void flush();
  /// What the constructor's replay found (all-zero for a fresh dir).
  const RecoveryReport& last_recovery() const { return recovery_; }
  DurabilityStats durability_stats() const;
  /// Close out RUNNING activations left behind by a crash: each becomes
  /// FAILED (exitcode -1, attempts unchanged), WAL-logged like any other
  /// end. Returns the number closed. The caller then re-executes them —
  /// the paper's provenance-driven re-execution applied to recovery.
  std::size_t abort_open_activations(double now);
  /// Order-independent digest over every table's rows — equal digests
  /// mean identical repository contents (used by the replay-idempotence
  /// invariant checks).
  std::string content_digest();

  /// Direct repository access for tests and custom analytics. With one
  /// shard (the default), `fn` runs against the live database under the
  /// shard lock — safe even while activations are being recorded, and
  /// mutations (test tampering) take effect. With multiple shards, `fn`
  /// receives a merged *copy* (facts from every shard, dimensions from
  /// shard 0): safe concurrent reads, but mutations only affect the
  /// snapshot.
  template <typename Fn>
  auto with_database(Fn&& fn) {
    if (shards_.size() == 1) {
      Shard& shard = *shards_[0];
      MutexLock lock(shard.mutex);
      return std::forward<Fn>(fn)(shard.db);
    }
    sql::Database merged = snapshot_database();
    return std::forward<Fn>(fn)(merged);
  }

 private:
  /// One shard: a database partition plus its WAL buffer. `writer` is
  /// touched only by the flusher thread (group commit) or under `mutex`
  /// (synchronous mode), never both.
  struct Shard {
    Mutex mutex{"prov.shard"};
    sql::Database db SCIDOCK_GUARDED_BY(mutex);
    /// taskid -> hactivation row index (end_activation in O(1); replay
    /// of a 1M-activation log would be quadratic without it).
    std::unordered_map<long long, std::size_t> activation_rows
        SCIDOCK_GUARDED_BY(mutex);
    std::string pending SCIDOCK_GUARDED_BY(mutex);  ///< encoded frames
    long long pending_records SCIDOCK_GUARDED_BY(mutex) = 0;
    std::unique_ptr<wal::SegmentWriter> writer;
  };

  /// Row/query-rate counter handles resolved by set_metrics; atomics so
  /// recording threads read them without a store-wide lock.
  struct RateCounters {
    std::atomic<obs::Counter*> workflow_rows{nullptr};
    std::atomic<obs::Counter*> activity_rows{nullptr};
    std::atomic<obs::Counter*> activation_rows{nullptr};
    std::atomic<obs::Counter*> machine_rows{nullptr};
    std::atomic<obs::Counter*> file_rows{nullptr};
    std::atomic<obs::Counter*> value_rows{nullptr};
    std::atomic<obs::Counter*> queries{nullptr};
    std::atomic<obs::Counter*> wal_records{nullptr};
    std::atomic<obs::Counter*> wal_bytes{nullptr};
    std::atomic<obs::Counter*> wal_group_commits{nullptr};
    std::atomic<obs::Counter*> wal_rotations{nullptr};
    std::atomic<obs::Gauge*> wal_pending_bytes{nullptr};
  };

  static void init_schema(sql::Database& db);
  Shard& fact_shard(long long taskid);
  std::string shard_dir(std::size_t k) const;

  /// Apply one WAL record to a shard's database (recording and replay
  /// share these, so replay rebuilds exactly what was recorded). Caller
  /// holds the shard lock (recording) or owns the store (recovery).
  void apply_record(Shard& shard, const wal::WalRecord& record);

  /// hactivation row for `taskid`, or nullptr. Uses the shard's index,
  /// falling back to a scan (and repairing the index) if a test mutated
  /// the table underneath it. Caller holds the shard lock.
  sql::Row* find_activation(Shard& shard, long long taskid);

  /// Frame `record` into the shard's WAL: buffered for the flusher
  /// (group commit) or appended + synced inline. Caller holds the shard
  /// lock. No-op when no VFS is attached.
  void log_record(Shard& shard, const wal::WalRecord& record);
  /// Post-record hook (outside the shard lock): wakes the flusher when
  /// the pending buffer crossed the group-commit threshold.
  void after_record();
  /// Throws InvalidStateError once the store crashed.
  void ensure_writable() const;

  void recover();
  void prune_orphans();
  void start_flusher();
  void flusher_main();
  /// One group commit: snapshot fact-shard buffers first and shard 0
  /// (which carries the dimension records) last, then write shard 0
  /// first — so a fact row can never become durable before the
  /// dimension rows it references (DESIGN.md §12). Returns false after
  /// marking the store crashed.
  bool commit_once();

  sql::Database snapshot_database();

  static void bump(const std::atomic<obs::Counter*>& counter,
                   long long delta = 1) {
    if (obs::Counter* c = counter.load(std::memory_order_relaxed)) {
      c->inc(delta);
    }
  }

  ProvenanceStoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  RateCounters rates_;
  RecoveryReport recovery_;

  std::atomic<long long> next_wkfid_{1};
  std::atomic<long long> next_actid_{1};
  std::atomic<long long> next_taskid_{1};
  std::atomic<long long> next_fileid_{1};
  std::atomic<long long> next_valueid_{1};

  std::atomic<bool> crashed_{false};
  std::atomic<long long> pending_bytes_total_{0};
  std::atomic<long long> records_logged_{0};
  std::atomic<long long> records_durable_{0};
  std::atomic<long long> bytes_durable_{0};
  std::atomic<long long> group_commits_{0};
  std::atomic<long long> rotations_total_{0};

  // Group-commit flusher coordination. The flusher never holds
  // flusher_mutex_ and a shard mutex at the same time.
  Mutex flusher_mutex_{"prov.flusher"};
  CondVar flusher_cv_;     ///< wakes the flusher (work or stop)
  CondVar flush_done_cv_;  ///< wakes flush() waiters
  bool stop_ SCIDOCK_GUARDED_BY(flusher_mutex_) = false;
  long long flush_tickets_ SCIDOCK_GUARDED_BY(flusher_mutex_) = 0;
  long long flush_completed_ SCIDOCK_GUARDED_BY(flusher_mutex_) = 0;
  std::thread flusher_;
  /// Fork/join edge for flusher_: records logged before the spawn
  /// happen-before the flusher's commits; join lands in the destructor.
  sync::TaskEdge flusher_edge_;
};

}  // namespace scidock::prov
