#pragma once

/// \file sim_executor.hpp
/// The cloud-simulation executor: replays a workflow over the discrete-
/// event simulator with a calibrated cost model, VM heterogeneity, data
/// staging, activation failures/hangs with re-execution, elasticity and
/// scheduler planning overhead. This is the engine behind the paper's
/// Figures 5-9 (TET / speedup / efficiency sweeps), which cannot be
/// measured natively on this machine.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/cost_model.hpp"
#include "cloud/failure.hpp"
#include "cloud/sim.hpp"
#include "obs/obs.hpp"
#include "prov/prov.hpp"
#include "wf/pipeline.hpp"
#include "wf/run_tally.hpp"
#include "wf/scheduler.hpp"

namespace scidock::wf {

struct SimExecutorOptions {
  /// Initial fleet: instance types to boot at t = 0. The paper mixes
  /// m3.xlarge and m3.2xlarge to reach each virtual-core count.
  std::vector<cloud::VmType> fleet;
  std::string scheduler_policy = "greedy-cost";
  cloud::FailureModelOptions failure{};
  bool reexecute_failures = true;   ///< ablation: off = failed tuples are lost
  /// The routine the paper's authors added to SciCumulus after diagnosing
  /// the Hg hangs via provenance: hazardous inputs are recognised and
  /// aborted *before* execution instead of burning the hang timeout on
  /// every attempt. Ablation: set false to replay the pre-fix behaviour.
  bool preabort_hazards = true;

  /// Elasticity (off by default: the scaling figures use fixed fleets so
  /// core counts stay comparable).
  bool elasticity = false;
  int min_vms = 1;
  int max_vms = 32;
  double elasticity_period_s = 300.0;
  cloud::VmType elastic_vm_type;   ///< type acquired when scaling up

  /// Per-activity stage-in/out volume (bytes) priced through the shared
  /// filesystem latency model; keyed by activity tag, 256 KiB otherwise.
  std::map<std::string, std::size_t> io_bytes;

  std::uint64_t seed = 42;

  /// Optional tracing/metrics sinks (see obs/obs.hpp). Spans are stamped
  /// with *simulated* seconds (x 1e6 for Chrome microseconds) and carry
  /// the VM id as their trace row; the executor counter series match the
  /// native executor's names so reconciliation SQL is executor-agnostic.
  obs::Observability obs;
};

struct SimReport : RunTally {
  double total_execution_time_s = 0.0;   ///< the paper's TET
  double scheduling_overhead_s = 0.0;    ///< summed planning time
  double data_staging_s = 0.0;           ///< summed shared-FS time
  double cloud_cost_usd = 0.0;
  int peak_alive_vms = 0;
  int total_cores = 0;
};

class SimulatedExecutor {
 public:
  SimulatedExecutor(const Pipeline& pipeline, cloud::CostModel cost_model,
                    SimExecutorOptions options);

  /// Replay the workflow over `input`. When `prov` is non-null every
  /// attempt is recorded with simulated timestamps under a new workflow
  /// id (`workflow_tag`); that store is the run's only per-attempt log,
  /// and the report keeps counts and sums.
  SimReport run(const Relation& input, prov::ProvenanceStore* prov = nullptr,
                const std::string& workflow_tag = "scidock-sim");

 private:
  const Pipeline& pipeline_;
  cloud::CostModel cost_model_;
  SimExecutorOptions options_;
};

/// Helper: a fleet of mixed m3 instances totalling `virtual_cores` cores,
/// following the paper's combination of m3.xlarge/m3.2xlarge (8-core VMs
/// preferred, a 4-core VM to round odd totals).
std::vector<cloud::VmType> m3_fleet_for_cores(int virtual_cores);

}  // namespace scidock::wf
