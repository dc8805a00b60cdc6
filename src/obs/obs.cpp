#include "obs/obs.hpp"

#include <string_view>
#include <vector>

#include "util/lockdep.hpp"

namespace scidock::obs {

void publish_sync_metrics(MetricsRegistry& registry) {
  if (!lockdep::compiled_in()) return;
  const auto publish = [&registry](const char* name, const char* help,
                                   long long value) {
    Counter& c = registry.counter(name, help);
    c.inc(value - c.value());  // delta: repeated publishes stay monotone
  };

  const lockdep::CounterSnapshot ld = lockdep::counters();
  registry
      .gauge(kLockdepLockClasses, "distinct named lock classes registered")
      .set(static_cast<double>(ld.lock_classes));
  publish(kLockdepAcquisitions, "instrumented lock acquisitions",
          ld.acquisitions);
  publish(kLockdepOrderEdges, "distinct lock-order graph edges",
          ld.order_edges);
  publish(kLockdepCondWaits, "CondVar::wait hazard checks", ld.cond_waits);
  publish(kLockdepPoolWaitChecks, "parallel_for self-wait checks",
          ld.pool_wait_checks);
  publish(kLockdepBlockingWaits, "annotated blocking-wait checks",
          ld.blocking_waits);
  publish(kLockdepFindingsError, "error-severity hazard findings",
          ld.findings_error);
  publish(kLockdepFindingsWarning, "warning-severity hazard findings",
          ld.findings_warning);
}

const std::vector<std::string_view>& known_metric_names() {
  static const std::vector<std::string_view> names = {
      // cache (src/scidock)
      kCacheGridmapsHits,
      kCacheGridmapsInflightWaits,
      kCacheGridmapsMisses,
      // cloud simulator (src/cloud)
      "scidock_cloud_cost_usd",
      "scidock_cloud_total_cores",
      "scidock_cloud_vm_utilisation",
      "scidock_cloud_vms_acquired_total",
      "scidock_cloud_vms_released_total",
      // executors
      kActivationSeconds,
      kActivationsAborted,
      kActivationsFailed,
      kActivationsFinished,
      kActivationsRetried,
      kActivationsStarted,
      kTuplesCompleted,
      kTuplesLost,
      // AutoGrid kernel
      kKernelAutogridMapsets,
      kKernelAutogridSlabSeconds,
      kKernelAutogridSlabs,
      // lockdep analyzer
      kLockdepAcquisitions,
      kLockdepBlockingWaits,
      kLockdepCondWaits,
      kLockdepFindingsError,
      kLockdepFindingsWarning,
      kLockdepLockClasses,
      kLockdepOrderEdges,
      kLockdepPoolWaitChecks,
      // thread pool (instrument_thread_pool)
      "scidock_pool_queue_depth",
      "scidock_pool_queue_wait_seconds",
      "scidock_pool_task_seconds",
      "scidock_pool_tasks_total",
      // provenance store (ProvenanceStore::set_metrics)
      "scidock_prov_activation_rows_total",
      "scidock_prov_activity_rows_total",
      "scidock_prov_file_rows_total",
      "scidock_prov_machine_rows_total",
      "scidock_prov_queries_total",
      "scidock_prov_recovery_orphan_rows",
      "scidock_prov_recovery_records",
      "scidock_prov_recovery_segments",
      "scidock_prov_recovery_truncated_bytes",
      "scidock_prov_shards",
      "scidock_prov_value_rows_total",
      "scidock_prov_wal_bytes_total",
      "scidock_prov_wal_group_commits_total",
      "scidock_prov_wal_pending_bytes",
      "scidock_prov_wal_records_total",
      "scidock_prov_wal_rotations_total",
      "scidock_prov_workflow_rows_total",
      // simulated scheduler
      "scidock_sched_mean_queue_length",
      "scidock_sched_overhead_seconds",
      "scidock_sched_picks_total",
      "scidock_sched_reexecution_picks_total",
  };
  return names;
}

ExecutorCounters executor_counters(MetricsRegistry* registry) {
  ExecutorCounters c;
  if (registry == nullptr) return c;
  c.started = &registry->counter(
      kActivationsStarted, "activation attempts dispatched (all outcomes)");
  c.finished =
      &registry->counter(kActivationsFinished, "attempts ending FINISHED");
  c.failed = &registry->counter(kActivationsFailed,
                                "attempts ending FAILED (re-executed)");
  c.aborted = &registry->counter(
      kActivationsAborted, "attempts ending ABORTED (hang watchdog)");
  c.retried = &registry->counter(kActivationsRetried,
                                 "attempts with attempt number > 1");
  c.tuples_completed = &registry->counter(
      kTuplesCompleted, "input tuples that traversed their whole chain");
  c.tuples_lost =
      &registry->counter(kTuplesLost, "input tuples that exhausted retries");
  c.activation_seconds = &registry->histogram(
      kActivationSeconds, {}, "duration of FINISHED activation attempts");
  return c;
}

void instrument_thread_pool(ThreadPool& pool, MetricsRegistry& registry) {
  Gauge* depth = &registry.gauge("scidock_pool_queue_depth",
                                 "work-queue depth after latest enqueue");
  Counter* tasks =
      &registry.counter("scidock_pool_tasks_total", "tasks executed");
  HistogramMetric* wait = &registry.histogram(
      "scidock_pool_queue_wait_seconds", {}, "submit-to-start latency");
  HistogramMetric* exec = &registry.histogram("scidock_pool_task_seconds", {},
                                              "task execution time");
  ThreadPool::StatsHook hook;
  hook.enqueued = [depth](std::size_t queue_depth) {
    depth->set(static_cast<double>(queue_depth));
  };
  hook.finished = [tasks, wait, exec](double wait_s, double exec_s) {
    tasks->inc();
    wait->observe(wait_s);
    exec->observe(exec_s);
  };
  pool.set_stats_hook(std::move(hook));
}

}  // namespace scidock::obs
