#pragma once

/// \file obs.hpp
/// Observability context handed to executors and services: a (possibly
/// null) TraceRecorder plus a (possibly null) MetricsRegistry. Both null
/// — the default — means zero instrumentation overhead beyond a pointer
/// test per site.
///
/// Canonical metric names live here so the executors, the CLI and the
/// provenance-reconciliation checker agree on them; reconciliation
/// depends on the executor counters matching SQL over the PROV-Wf store
/// row for row (DESIGN.md §9).

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace scidock::obs {

struct Observability {
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;

  explicit operator bool() const {
    return trace != nullptr || metrics != nullptr;
  }
};

// ---- executor counters (reconciled against PROV-Wf SQL) ----
// started  == count(*)                     over hactivation rows of the run
// finished == count(*) WHERE status = 'FINISHED'
// failed   == count(*) WHERE status = 'FAILED'
// aborted  == count(*) WHERE status = 'ABORTED'
// retried  == count(*) WHERE attempts > 1
inline constexpr const char* kActivationsStarted =
    "scidock_executor_activations_started_total";
inline constexpr const char* kActivationsFinished =
    "scidock_executor_activations_finished_total";
inline constexpr const char* kActivationsFailed =
    "scidock_executor_activations_failed_total";
inline constexpr const char* kActivationsAborted =
    "scidock_executor_activations_aborted_total";
inline constexpr const char* kActivationsRetried =
    "scidock_executor_activations_retried_total";
inline constexpr const char* kTuplesCompleted =
    "scidock_executor_tuples_completed_total";
inline constexpr const char* kTuplesLost =
    "scidock_executor_tuples_lost_total";
inline constexpr const char* kActivationSeconds =
    "scidock_executor_activation_seconds";

// ---- grid-map cache + kernel series (DESIGN.md §10) ----
// The single-flight grid-map cache counts each AutoGrid activation as
// exactly one of hit / miss / inflight-wait once it finishes, so
// hits + misses + waits == count(FINISHED autogrid activations) and the
// InvariantChecker reconciles the three against PROV-Wf SQL.
inline constexpr const char* kCacheGridmapsHits =
    "scidock_cache_gridmaps_hits_total";
inline constexpr const char* kCacheGridmapsMisses =
    "scidock_cache_gridmaps_misses_total";
inline constexpr const char* kCacheGridmapsInflightWaits =
    "scidock_cache_gridmaps_inflight_waits_total";
// Kernel-side series: map-set computations (one per cache miss at most),
// z-slabs executed, and per-slab wall time (the AutoGrid fan-out shape).
inline constexpr const char* kKernelAutogridMapsets =
    "scidock_kernel_autogrid_mapsets_total";
inline constexpr const char* kKernelAutogridSlabs =
    "scidock_kernel_autogrid_slabs_total";
inline constexpr const char* kKernelAutogridSlabSeconds =
    "scidock_kernel_autogrid_slab_seconds";

// ---- sync-analysis series (DESIGN.md §11) ----
// Published from the util/lockdep and util/racer counter snapshots by
// publish_sync_metrics(); absent when the analyzers are compiled out
// (SCIDOCK_SYNC_ANALYSIS=OFF).
inline constexpr const char* kLockdepLockClasses =
    "scidock_lockdep_lock_classes";
inline constexpr const char* kLockdepAcquisitions =
    "scidock_lockdep_acquisitions_total";
inline constexpr const char* kLockdepOrderEdges =
    "scidock_lockdep_order_edges_total";
inline constexpr const char* kLockdepCondWaits =
    "scidock_lockdep_cond_waits_total";
inline constexpr const char* kLockdepPoolWaitChecks =
    "scidock_lockdep_pool_wait_checks_total";
inline constexpr const char* kLockdepBlockingWaits =
    "scidock_lockdep_blocking_waits_total";
inline constexpr const char* kLockdepFindingsError =
    "scidock_lockdep_findings_error_total";
inline constexpr const char* kLockdepFindingsWarning =
    "scidock_lockdep_findings_warning_total";

inline constexpr const char* kRacerThreads = "scidock_racer_threads";
inline constexpr const char* kRacerSyncObjects = "scidock_racer_sync_objects";
inline constexpr const char* kRacerTrackedCells =
    "scidock_racer_tracked_cells";
inline constexpr const char* kRacerReads = "scidock_racer_reads_total";
inline constexpr const char* kRacerWrites = "scidock_racer_writes_total";
inline constexpr const char* kRacerMutexEdges =
    "scidock_racer_mutex_edges_total";
inline constexpr const char* kRacerTaskEdges =
    "scidock_racer_task_edges_total";
inline constexpr const char* kRacerHbEdges = "scidock_racer_hb_edges_total";
inline constexpr const char* kRacerReductionRecords =
    "scidock_racer_reduction_records_total";
inline constexpr const char* kRacerFindingsError =
    "scidock_racer_findings_error_total";
inline constexpr const char* kRacerFindingsWarning =
    "scidock_racer_findings_warning_total";

/// Mirror both analyzers' internal counters into `registry`. Lockdep's
/// classes and racer's threads / sync-objects / cells series are gauges;
/// the rest are counters bumped by the delta since the last publish, so
/// repeated calls stay monotone. No-op when compiled out.
void publish_sync_metrics(MetricsRegistry& registry);

/// Every canonical scidock_* series name the codebase registers, sorted.
/// The lint SQL008 rule validates `-- reconciles: <metric>` annotations in
/// shipped queries against this list, so keep it in sync when adding a
/// series (the obs test cross-checks registration sites).
const std::vector<std::string_view>& known_metric_names();

/// Pre-resolved executor counter handles: both executors increment the
/// same series; resolving once keeps the hot path at one atomic add.
struct ExecutorCounters {
  Counter* started = nullptr;
  Counter* finished = nullptr;
  Counter* failed = nullptr;
  Counter* aborted = nullptr;
  Counter* retried = nullptr;
  Counter* tuples_completed = nullptr;
  Counter* tuples_lost = nullptr;
  HistogramMetric* activation_seconds = nullptr;
};

/// Registers (or finds) the executor series in `registry`. A null
/// registry yields all-null handles; increment sites guard on that.
ExecutorCounters executor_counters(MetricsRegistry* registry);

/// Install queue-depth / task-latency instrumentation on a thread pool:
///   scidock_pool_queue_depth            gauge   (depth after each enqueue)
///   scidock_pool_tasks_total            counter
///   scidock_pool_queue_wait_seconds     histogram (submit -> start)
///   scidock_pool_task_seconds           histogram (start -> finish)
/// Replaces any previously installed stats hook.
void instrument_thread_pool(ThreadPool& pool, MetricsRegistry& registry);

}  // namespace scidock::obs
