#pragma once

/// \file scheduler.hpp
/// Activation scheduling policies. SciCumulus' native policy is a
/// weighted-cost greedy algorithm (Oliveira et al. 2012): long-running
/// activations are matched to the fastest available VMs. A round-robin
/// policy is provided as the ablation baseline.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cloud/vm.hpp"

namespace scidock::wf {

/// A schedulable activation as the policy sees it.
struct PendingActivation {
  long long id = 0;            ///< executor-internal handle
  std::string activity_tag;
  double expected_cost_s = 1.0;  ///< on the reference core
  int attempts = 0;            ///< prior failed attempts (re-executions)
};

/// Placement decisions accumulated across a run, surfaced by the obs
/// layer as scidock_sched_* metrics.
struct SchedulerStats {
  long long picks = 0;
  long long reexecution_picks = 0;  ///< picked activation had attempts > 0
  long long queued_seen = 0;        ///< sum of queue lengths at pick time

  double mean_queue_length() const {
    return picks > 0 ? static_cast<double>(queued_seen) /
                           static_cast<double>(picks)
                     : 0.0;
  }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;

  /// Choose which queued activation the given VM slot should run next.
  /// Returns an index into `queue` (never empty when called). Records
  /// the decision in stats() before returning.
  std::size_t pick(const std::vector<PendingActivation>& queue,
                   const cloud::VmInstance& vm) {
    const std::size_t i = pick_impl(queue, vm);
    ++stats_.picks;
    stats_.queued_seen += static_cast<long long>(queue.size());
    if (queue[i].attempts > 0) ++stats_.reexecution_picks;
    return i;
  }

  const SchedulerStats& stats() const { return stats_; }

 protected:
  /// Policy hook behind pick(); same contract.
  virtual std::size_t pick_impl(const std::vector<PendingActivation>& queue,
                                const cloud::VmInstance& vm) = 0;

 private:
  SchedulerStats stats_;
};

/// SciCumulus' weighted-cost greedy policy: fast VMs (low slowdown) take
/// the most expensive queued activation; slow VMs take the cheapest.
/// Re-executions are prioritised so failures do not starve.
class GreedyCostScheduler : public Scheduler {
 public:
  std::string name() const override { return "greedy-cost"; }

 protected:
  std::size_t pick_impl(const std::vector<PendingActivation>& queue,
                        const cloud::VmInstance& vm) override;
};

/// FIFO baseline (what Hadoop-style engines effectively do for SciDock).
class FifoScheduler : public Scheduler {
 public:
  std::string name() const override { return "fifo"; }

 protected:
  std::size_t pick_impl(const std::vector<PendingActivation>& queue,
                        const cloud::VmInstance& vm) override;
};

std::unique_ptr<Scheduler> make_scheduler(std::string_view policy_name);

}  // namespace scidock::wf
