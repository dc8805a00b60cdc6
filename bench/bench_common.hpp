#pragma once

/// \file bench_common.hpp
/// Shared plumbing for the per-figure/table benchmark binaries: the
/// standard 10,000-pair experiment, the core-count sweep behind Figures
/// 7-9, and paper-vs-measured report formatting.

#include <string>
#include <vector>

#include "scidock/experiment.hpp"
#include "wf/sim_executor.hpp"

namespace scidock::bench {

/// The paper's core counts (2..128 on mixed m3 instances).
const std::vector<int>& paper_core_counts();

struct SweepPoint {
  int cores = 0;
  double tet_s = 0.0;
  double speedup_vs_serial = 0.0;  ///< TET(1-core-equivalent) / TET
  double efficiency = 0.0;         ///< speedup / cores
  double improvement_pct = 0.0;    ///< 100 * (1 - TET / TET(serial))
  long long failures = 0;
  long long hangs = 0;
  double sched_overhead_s = 0.0;
};

struct Sweep {
  std::string engine;              ///< "AD4" or "Vina"
  double serial_tet_s = 0.0;       ///< 1-core-equivalent baseline
  std::vector<SweepPoint> points;
};

/// Run the Figure 7-9 sweep: the full 10,000-pair workload replayed on
/// the cloud simulator at each core count. `pairs` can be reduced for
/// quick runs. The serial baseline is 2 x TET(2 cores), the paper's
/// effective normalisation.
Sweep run_scaling_sweep(core::EngineMode mode, std::size_t pairs,
                        const std::vector<int>& cores, std::uint64_t seed = 42);

/// Read a figure or table bench's workload size from the environment,
/// with a default.
int env_int(const char* name, int fallback);

/// Section header in the bench output.
void print_header(const std::string& title, const std::string& paper_ref);

/// One "paper vs measured" line.
void print_compare(const std::string& what, const std::string& paper,
                   const std::string& measured);

}  // namespace scidock::bench
