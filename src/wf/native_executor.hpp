#pragma once

/// \file native_executor.hpp
/// The native executor really runs the activity implementations (real
/// parsing, grid math, docking) on a thread pool whose size plays the
/// role of "virtual cores". Used for tests, examples and the docking-
/// quality experiments (Table 3), where the *results* matter rather than
/// cloud-scale timing.

#include <functional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "prov/prov.hpp"
#include "util/thread_pool.hpp"
#include "vfs/vfs.hpp"
#include "wf/pipeline.hpp"
#include "wf/run_tally.hpp"

namespace scidock::wf {

/// Progress event for runtime steering (paper SS IV.B: "SciCumulus allows
/// for runtime provenance query ... it allows for user steering and
/// anticipating results"). Fired after every activation attempt; the
/// provenance store is already up to date when the callback runs, so the
/// monitor can issue SQL against it mid-execution.
struct ActivationEvent {
  std::string activity_tag;
  std::string pair;        ///< the tuple's workload identifier, if any
  bool success = true;
  int attempt = 1;
  double seconds = 0.0;
};
using MonitorFn = std::function<void(const ActivationEvent&)>;

/// Verdict of a fault injector for one activation attempt, mirroring
/// cloud::ActivationOutcome: Failure crashes the attempt (status FAILED),
/// Hang models the looping state killed by the watchdog (status ABORTED).
/// Both burn one attempt from the re-execution budget.
enum class InjectedFault { None, Failure, Hang };

/// Decides, per activation attempt, whether the chaos layer makes it
/// fail. Must be deterministic in (tag, tuple, attempt) and thread-safe:
/// it is called concurrently and replays must reproduce the run.
using FaultInjectorFn = std::function<InjectedFault(
    const std::string& activity_tag, const Tuple& tuple, int attempt)>;

struct NativeExecutorOptions {
  int threads = 1;
  int max_attempts = 3;      ///< per-stage re-execution budget
  std::string expdir = "/root/exp_scidock/";
  std::uint64_t seed = 42;
  /// Optional steering monitor; invoked from worker threads (must be
  /// thread-safe). Exceptions from the monitor are swallowed.
  MonitorFn monitor;
  /// Chaos hooks: per-attempt fault verdicts, and a hook installed on the
  /// internal thread pool (scheduling-delay injection). Both optional.
  FaultInjectorFn fault_injector;
  ThreadPool::TaskHook pool_task_hook;
  /// Optional tracing/metrics sinks (see obs/obs.hpp). When set, the run
  /// emits one real-time span per activation attempt plus the executor
  /// counter series reconciled against PROV-Wf by the chaos checker.
  obs::Observability obs;
};

struct NativeReport : RunTally {
  Relation output;                     ///< tuples that completed the chain
  double wall_seconds = 0.0;
  /// The last attempt's error of each lost tuple, in input-tuple order.
  std::vector<std::string> failure_messages;
};

class NativeExecutor {
 public:
  NativeExecutor(const Pipeline& pipeline, vfs::SharedFileSystem& fs,
                 prov::ProvenanceStore& prov, NativeExecutorOptions options);

  /// Run every input tuple through its chain; tuples execute concurrently
  /// on the thread pool, each chain sequentially.
  NativeReport run(const Relation& input, const std::string& workflow_tag);

 private:
  const Pipeline& pipeline_;
  vfs::SharedFileSystem& fs_;
  prov::ProvenanceStore& prov_;
  NativeExecutorOptions options_;
};

}  // namespace scidock::wf
