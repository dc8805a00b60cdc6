#include "wf/scheduler.hpp"

#include <iterator>
#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::wf {

namespace {
/// A VM whose slowdown() is at most this is considered "fast".
constexpr double kFastVmThreshold = 1.0;
}  // namespace

PendingActivation Scheduler::pop(const cloud::VmInstance& vm) {
  SCIDOCK_ASSERT(!empty());
  ++stats_.picks;
  stats_.queued_seen += static_cast<long long>(size());
  PendingActivation picked = take(vm);
  if (picked.attempts > 0) ++stats_.reexecution_picks;
  return picked;
}

void GreedyCostScheduler::push(PendingActivation activation) {
  // Re-executions first: the paper's fault tolerance resubmits failed
  // activations promptly rather than appending them to the tail.
  Index& index = activation.attempts > 0 ? retries_ : fresh_;
  const std::pair key{activation.expected_cost_s, activation.id};
  index.emplace(key, std::move(activation));
}

PendingActivation GreedyCostScheduler::take(const cloud::VmInstance& vm) {
  Index& index = retries_.empty() ? fresh_ : retries_;
  auto it = index.begin();  // slow VM: the cheapest, earliest queued
  if (vm.slowdown() <= kFastVmThreshold) {
    // Fast VM: the most expensive, earliest queued among equal costs.
    const double top = std::prev(index.end())->first.first;
    it = index.lower_bound({top, std::numeric_limits<long long>::min()});
  }
  return std::move(index.extract(it).mapped());
}

PendingActivation FifoScheduler::take(const cloud::VmInstance& /*vm*/) {
  PendingActivation head = std::move(queue_.front());
  queue_.pop_front();
  return head;
}

std::unique_ptr<Scheduler> make_scheduler(std::string_view policy_name) {
  if (iequals(policy_name, "greedy-cost")) {
    return std::make_unique<GreedyCostScheduler>();
  }
  if (iequals(policy_name, "fifo")) return std::make_unique<FifoScheduler>();
  throw NotFoundError("scheduler policy", policy_name);
}

}  // namespace scidock::wf
