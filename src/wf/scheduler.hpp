#pragma once

/// \file scheduler.hpp
/// Activation scheduling policies. SciCumulus' native policy is a
/// weighted-cost greedy algorithm (Oliveira et al. 2012): long-running
/// activations are matched to the fastest available VMs. A FIFO policy is
/// provided as the ablation baseline.
///
/// A policy owns the ready queue: the executor push()es activations as
/// they become ready and pop()s one per placement. Both are O(log n), so
/// a replay stays linear in the number of activations.

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

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

  /// Queue an activation. Ids must rise from push to push: they break
  /// ties in queue order.
  virtual void push(PendingActivation activation) = 0;
  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Remove and return the activation the given VM slot should run next
  /// (the queue must not be empty). Records the decision in stats(),
  /// counting the queue length before the removal.
  PendingActivation pop(const cloud::VmInstance& vm);

  const SchedulerStats& stats() const { return stats_; }

 protected:
  /// Policy hook behind pop(); same contract, without the stats.
  virtual PendingActivation take(const cloud::VmInstance& vm) = 0;

 private:
  SchedulerStats stats_;
};

/// SciCumulus' weighted-cost greedy policy: fast VMs (low slowdown) take
/// the most expensive queued activation; slow VMs take the cheapest.
/// Re-executions are prioritised so failures do not starve. Among equal
/// costs the earliest queued activation goes first.
class GreedyCostScheduler : public Scheduler {
 public:
  std::string name() const override { return "greedy-cost"; }
  void push(PendingActivation activation) override;
  std::size_t size() const override {
    return retries_.size() + fresh_.size();
  }

 protected:
  PendingActivation take(const cloud::VmInstance& vm) override;

 private:
  /// Keyed on (expected cost, id).
  using Index = std::map<std::pair<double, long long>, PendingActivation>;

  Index retries_;  ///< attempts > 0: always placed before fresh work
  Index fresh_;
};

/// FIFO baseline (what Hadoop-style engines effectively do for SciDock).
class FifoScheduler : public Scheduler {
 public:
  std::string name() const override { return "fifo"; }
  void push(PendingActivation activation) override {
    queue_.push_back(std::move(activation));
  }
  std::size_t size() const override { return queue_.size(); }

 protected:
  PendingActivation take(const cloud::VmInstance& vm) override;

 private:
  std::deque<PendingActivation> queue_;
};

/// "greedy-cost" or "fifo"; throws NotFoundError for anything else.
std::unique_ptr<Scheduler> make_scheduler(std::string_view policy_name);

}  // namespace scidock::wf
