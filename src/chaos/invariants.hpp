#pragma once

/// \file invariants.hpp
/// Cross-executor invariants checked after any (chaotic or quiet) run.
///
/// Both executors' reports normalise into a RunSummary; the checker then
/// validates the paper's fault-tolerance contract:
///   (a) conservation — every input tuple is either completed or lost,
///       and nothing is lost while the re-execution budget still had
///       headroom (PAPER.md SS IV.B: failed activations are re-executed);
///   (b) provenance consistency — exactly one FINISHED hactivation row
///       per completed tuple-activity, attempt numbers 1..k consecutive
///       with the FINISHED attempt after all FAILED/ABORTED ones,
///       monotone timestamps, and status counts matching the report;
///   (c) replay — identical seeds reproduce byte-identical summaries.

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "prov/prov.hpp"
#include "wf/native_executor.hpp"
#include "wf/sim_executor.hpp"

namespace scidock::chaos {

/// Executor-neutral view of one run. `digest` is a canonical
/// serialisation of everything that must be reproducible from the seed
/// (wall-clock timings are excluded for the native executor).
struct RunSummary {
  std::string executor;            ///< "native" | "sim"
  std::size_t input_tuples = 0;
  long long activations_finished = 0;
  long long activations_failed = 0;
  long long activations_hung = 0;
  long long tuples_completed = 0;
  long long tuples_lost = 0;
  int attempt_budget = 0;          ///< max attempts per stage
  int max_observed_attempt = 0;    ///< highest attempt number that ran
  /// Losses that are by design, not re-execution bugs (pre-aborted
  /// hazards such as the Hg receptors); conservation tolerates these.
  long long expected_hazard_losses = 0;
  std::string digest;
};

/// Summaries. The native digest covers counters plus the sorted output
/// relation; the sim digest additionally covers TET and the full
/// activation record list (the sim is deterministic to the last double).
RunSummary summarize(const wf::SimReport& report,
                     const wf::SimExecutorOptions& options,
                     std::size_t input_tuples);
RunSummary summarize(const wf::NativeReport& report,
                     const wf::NativeExecutorOptions& options,
                     std::size_t input_tuples);

/// Accumulates human-readable violations across any number of checks.
class InvariantChecker {
 public:
  /// Invariant (a). Assumes a cardinality-preserving (Map-only) pipeline.
  bool check_conservation(const RunSummary& summary);

  /// Invariant (b), against the store the run recorded into. `chain_length`
  /// is the number of stages every tuple traverses (Map-only pipeline).
  bool check_provenance(const RunSummary& summary,
                        prov::ProvenanceStore& store,
                        const std::string& workflow_tag, int chain_length);

  /// Invariant (c): two same-seed runs must have identical digests.
  bool check_replay(const RunSummary& first, const RunSummary& second);

  /// Invariant (d), metrics <-> provenance reconciliation: the run's
  /// scidock_executor_* counters must equal SQL counts over the PROV-Wf
  /// store (prov::activation_count_sql and friends) *and* the report.
  /// `metrics` must be a registry used for exactly this run — the
  /// counters are cumulative, so sharing one registry across runs breaks
  /// the equality by design.
  bool check_metrics(const RunSummary& summary,
                     const obs::MetricsRegistry& metrics,
                     prov::ProvenanceStore& store,
                     const std::string& workflow_tag);

  /// Invariant (f), crash-recovery integrity: a store just reopened from
  /// its WAL must be a consistent prefix of the pre-crash history —
  /// recovery pruned nothing (the commit protocol orders dimensions
  /// before facts, so orphans mean a protocol bug), ids are unique,
  /// every fact row's references resolve, statuses are legal, attempt
  /// counters are >= 1 and closed activations have endtime >= starttime.
  /// RUNNING rows are legal here (the crash interrupted them); call
  /// ProvenanceStore::abort_open_activations before resuming the run.
  bool check_recovery(prov::ProvenanceStore& store);

  /// Invariant (e), synchronisation discipline: neither runtime analyzer
  /// (util/sync_events.hpp, DESIGN.md §11) recorded an error-severity
  /// finding over everything executed so far in this process — no
  /// lock-order inversion, pool self-wait or wait-while-holding from
  /// lockdep, no RC001/RC002 data race, RC003 unsynchronized publish or
  /// RC004 keyed reduction divergence from racer. Warnings (a long hold,
  /// an order-only reduction digest difference) are tolerated. One
  /// violation per error finding, carrying the analyzer's evidence.
  /// Trivially true when the analyzers are compiled out.
  bool check_sync();

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  /// All violations joined for test failure messages.
  std::string to_string() const;

 private:
  bool fail(std::string message);

  std::vector<std::string> violations_;
};

}  // namespace scidock::chaos
