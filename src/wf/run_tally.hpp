#pragma once

/// \file run_tally.hpp
/// The counts both executors report, and the one place that closes an
/// activation attempt. An attempt is one PROV-Wf hactivation row; closing
/// it bumps the report field of its status and the matching
/// scidock_executor_* series, so the reconciliation in
/// chaos::InvariantChecker::check_metrics holds row for row whichever
/// executor ran.

#include <map>
#include <string>
#include <string_view>

#include "obs/obs.hpp"
#include "util/stats.hpp"

namespace scidock::wf {

struct RunTally {
  long long activations_finished = 0;
  long long activations_failed = 0;    ///< failed attempts (re-executed)
  long long activations_hung = 0;      ///< hang attempts aborted by the watchdog
  long long tuples_completed = 0;      ///< input tuples that traversed their chain
  /// Tuples that never finish their chain: the re-execution budget ran
  /// out, re-execution is off, or the simulator pre-aborted a hazard.
  long long tuples_lost = 0;
  int max_attempt = 0;  ///< highest attempt number closed
  /// Durations of FINISHED attempts, by activity tag.
  std::map<std::string, RunningStats> per_activity_seconds;

  /// One attempt of `tag` ended with `status` (prov::kStatus*): bumps
  /// started, the status's field and series, retried when attempt > 1,
  /// and max_attempt.
  /// A FINISHED attempt also records `seconds`.
  void close_attempt(const std::string& tag, std::string_view status,
                     int attempt, double seconds,
                     const obs::ExecutorCounters& counters);
  /// One tuple left the run, completed or lost.
  void close_tuple(bool completed, const obs::ExecutorCounters& counters);
  /// Adds `other`'s counts; the series already saw them.
  void merge(const RunTally& other);
};

}  // namespace scidock::wf
