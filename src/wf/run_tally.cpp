#include "wf/run_tally.hpp"

#include <algorithm>

#include "prov/prov.hpp"

namespace scidock::wf {

void RunTally::close_attempt(const std::string& tag, std::string_view status,
                             int attempt, double seconds,
                             const obs::ExecutorCounters& counters) {
  const bool finished = status == prov::kStatusFinished;
  const bool hung = status == prov::kStatusAborted;
  max_attempt = std::max(max_attempt, attempt);
  if (finished) {
    ++activations_finished;
    per_activity_seconds[tag].add(seconds);
  } else if (hung) {
    ++activations_hung;
  } else {
    ++activations_failed;
  }
  if (counters.started == nullptr) return;  // no registry: no series
  counters.started->inc();
  if (attempt > 1) counters.retried->inc();
  if (finished) {
    counters.finished->inc();
    counters.activation_seconds->observe(seconds);
  } else {
    (hung ? counters.aborted : counters.failed)->inc();
  }
}

void RunTally::close_tuple(bool completed,
                           const obs::ExecutorCounters& counters) {
  if (completed) ++tuples_completed;
  else ++tuples_lost;
  if (counters.started == nullptr) return;
  (completed ? counters.tuples_completed : counters.tuples_lost)->inc();
}

void RunTally::merge(const RunTally& other) {
  activations_finished += other.activations_finished;
  activations_failed += other.activations_failed;
  activations_hung += other.activations_hung;
  tuples_completed += other.tuples_completed;
  tuples_lost += other.tuples_lost;
  max_attempt = std::max(max_attempt, other.max_attempt);
  for (const auto& [tag, stats] : other.per_activity_seconds) {
    per_activity_seconds[tag].merge(stats);
  }
}

}  // namespace scidock::wf
