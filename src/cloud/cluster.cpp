#include "cloud/cluster.hpp"

#include <cmath>

#include "util/error.hpp"

namespace scidock::cloud {

namespace {
constexpr double kBootLatencyMeanS = 75.0;   ///< EC2 instance start-up time
constexpr double kBootLatencyJitterS = 20.0;
constexpr double kPerformanceJitterSigma = 0.08;  ///< lognormal sigma around 1.0
}  // namespace

VirtualCluster::VirtualCluster(Simulation& sim, Rng rng)
    : sim_(sim), rng_(std::move(rng)) {}

long long VirtualCluster::acquire(const VmType& type) {
  VmInstance vm;
  vm.id = next_id_++;
  vm.type = type;
  vm.performance_jitter = rng_.lognormal(0.0, kPerformanceJitterSigma);
  const double boot =
      std::max(1.0, rng_.normal(kBootLatencyMeanS, kBootLatencyJitterS));
  vm.boot_completed_at = sim_.now() + boot;
  instances_.push_back(vm);
  acquired_at_.push_back(sim_.now());
  return vm.id;
}

void VirtualCluster::release(long long vm_id) {
  VmInstance& vm = instance_mut(vm_id);
  SCIDOCK_REQUIRE(vm.alive(), "VM already released");
  vm.released_at = sim_.now();
}

const VmInstance& VirtualCluster::instance(long long vm_id) const {
  for (const VmInstance& vm : instances_) {
    if (vm.id == vm_id) return vm;
  }
  throw NotFoundError("VM instance", std::to_string(vm_id));
}

VmInstance& VirtualCluster::instance_mut(long long vm_id) {
  for (VmInstance& vm : instances_) {
    if (vm.id == vm_id) return vm;
  }
  throw NotFoundError("VM instance", std::to_string(vm_id));
}

std::vector<const VmInstance*> VirtualCluster::alive() const {
  std::vector<const VmInstance*> out;
  for (const VmInstance& vm : instances_) {
    if (vm.alive()) out.push_back(&vm);
  }
  return out;
}

int VirtualCluster::alive_count() const {
  int n = 0;
  for (const VmInstance& vm : instances_) {
    if (vm.alive()) ++n;
  }
  return n;
}

int VirtualCluster::total_cores() const {
  int n = 0;
  for (const VmInstance& vm : instances_) {
    if (vm.alive()) n += vm.type.cores;
  }
  return n;
}

double VirtualCluster::accumulated_cost_usd() const {
  double cost = 0.0;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    const VmInstance& vm = instances_[i];
    const double end = vm.alive() ? sim_.now() : vm.released_at;
    const double hours = std::max(0.0, end - acquired_at_[i]) / 3600.0;
    cost += std::ceil(std::max(hours, 1e-9)) * vm.type.hourly_cost_usd;
  }
  return cost;
}

}  // namespace scidock::cloud
