#include "wf/scheduler.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::wf {

namespace {
/// A VM whose slowdown() is at most this is considered "fast".
constexpr double kFastVmThreshold = 1.0;
}  // namespace

std::size_t GreedyCostScheduler::pick_impl(
    const std::vector<PendingActivation>& queue, const cloud::VmInstance& vm) {
  SCIDOCK_ASSERT(!queue.empty());
  // Re-executions first: the paper's fault tolerance resubmits failed
  // activations promptly rather than appending them to the tail.
  std::size_t best = 0;
  const bool fast_vm = vm.slowdown() <= kFastVmThreshold;
  auto better = [&](std::size_t a, std::size_t b) {
    // true if queue[a] should be preferred over queue[b]
    const bool ra = queue[a].attempts > 0;
    const bool rb = queue[b].attempts > 0;
    if (ra != rb) return ra;
    if (fast_vm) return queue[a].expected_cost_s > queue[b].expected_cost_s;
    return queue[a].expected_cost_s < queue[b].expected_cost_s;
  };
  for (std::size_t i = 1; i < queue.size(); ++i) {
    if (better(i, best)) best = i;
  }
  return best;
}

std::size_t FifoScheduler::pick_impl(const std::vector<PendingActivation>& queue,
                                     const cloud::VmInstance& /*vm*/) {
  SCIDOCK_ASSERT(!queue.empty());
  return 0;
}

std::unique_ptr<Scheduler> make_scheduler(std::string_view policy_name) {
  if (iequals(policy_name, "greedy-cost") || iequals(policy_name, "greedy")) {
    return std::make_unique<GreedyCostScheduler>();
  }
  if (iequals(policy_name, "fifo") || iequals(policy_name, "round-robin")) {
    return std::make_unique<FifoScheduler>();
  }
  throw NotFoundError("scheduler policy", policy_name);
}

}  // namespace scidock::wf
