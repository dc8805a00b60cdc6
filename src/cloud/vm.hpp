#pragma once

/// \file vm.hpp
/// The virtual-machine catalogue (paper Table 1) and VM instances of the
/// simulated EC2 region.

#include <string>
#include <string_view>
#include <vector>

namespace scidock::cloud {

/// An EC2 instance type. speed_factor scales activity durations (1.0 =
/// the paper's reference core, the Xeon E5-2670).
struct VmType {
  std::string name;
  int cores = 1;
  std::string physical_processor;
  double speed_factor = 1.0;
  double hourly_cost_usd = 0.0;

  bool operator==(const VmType&) const = default;
};

/// Table 1: the two instance types the paper used.
const VmType& vm_type_m3_xlarge();
const VmType& vm_type_m3_2xlarge();
/// The catalogue: both m3 types plus the t1.micro type the paper mentions
/// for completeness (reachable by name only).
const std::vector<VmType>& vm_catalogue();
/// Lookup by name; throws NotFoundError.
const VmType& vm_type_by_name(std::string_view name);

/// A booted (or booting) instance in the virtual cluster.
struct VmInstance {
  long long id = 0;
  VmType type;
  /// Per-instance performance multiplier: cloud VMs of the same type do
  /// not perform identically (virtualisation noise, noisy neighbours);
  /// drawn around 1.0 when the instance is acquired.
  double performance_jitter = 1.0;
  double boot_completed_at = 0.0;  ///< simulation time the VM became usable
  double released_at = -1.0;       ///< < 0 while the instance is alive

  bool alive() const { return released_at < 0.0; }
  /// Effective duration multiplier for work on this VM (lower = faster).
  double slowdown() const { return performance_jitter / type.speed_factor; }
};

}  // namespace scidock::cloud
