#pragma once

/// \file cluster.hpp
/// The virtual cluster: acquisition and release of VM instances against
/// the simulated EC2 region, with boot latency, per-instance performance
/// jitter and cost accounting — the substrate SciCumulus' elasticity
/// adapts at runtime.

#include <vector>

#include "cloud/sim.hpp"
#include "cloud/vm.hpp"
#include "util/rng.hpp"

namespace scidock::cloud {

class VirtualCluster {
 public:
  VirtualCluster(Simulation& sim, Rng rng);

  /// Request a new instance; it becomes usable after the boot latency.
  /// Returns the instance id immediately (the paper's asynchronous VM
  /// acquisition).
  long long acquire(const VmType& type);

  /// Terminate an instance (bills a final partial hour).
  void release(long long vm_id);

  const VmInstance& instance(long long vm_id) const;
  /// All instances ever acquired (dead ones have released_at >= 0).
  const std::vector<VmInstance>& instances() const { return instances_; }
  /// Currently alive instances.
  std::vector<const VmInstance*> alive() const;
  int alive_count() const;
  /// Sum of cores over alive instances (the paper's "virtual cores").
  int total_cores() const;

  /// Accumulated cost: each instance bills per started hour from boot
  /// request to release (or `now` if still alive) — EC2's 2014 billing.
  double accumulated_cost_usd() const;

 private:
  VmInstance& instance_mut(long long vm_id);

  Simulation& sim_;
  Rng rng_;
  std::vector<VmInstance> instances_;
  std::vector<double> acquired_at_;  ///< parallel to instances_
  long long next_id_ = 1;
};

}  // namespace scidock::cloud
