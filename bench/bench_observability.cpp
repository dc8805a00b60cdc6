// Observability overhead: the sim-executor scaling sweep at 2/4/8
// workers with full tracing+metrics recording on vs off.
//
// TET is simulated time and must be byte-identical in both modes (the
// recorder never perturbs the discrete-event schedule — asserted here and
// in tests/obs_test.cpp); the cost of observability is the extra
// *wall-clock* time the simulator spends appending events and bumping
// counters. The gate is overhead < 5%, per the design goal that
// instrumentation is cheap enough to leave on. The workload is fixed: the
// baseline must be long enough that timer noise cannot fake a 5% delta,
// so it is the whole 238 x 42 campaign (make_experiment caps pairs
// there), 0.11-0.19 s untraced per worker count on a 4-vCPU VM.
// Each arm's time is its minimum over the reps, which cancels scheduler
// noise better than the mean. A wall-clock gate, so it runs serially in
// `ci/check.sh perf`, never under `ctest -j`.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "data/table2.hpp"
#include "obs/obs.hpp"

namespace {

using namespace scidock;

constexpr int kPairs = 9996;
constexpr int kReps = 3;
constexpr int kMaxOverheadPct = 5;

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::print_header("SciDock bench: observability overhead",
                      "design goal: tracing cheap enough to leave on");

  const std::vector<int> worker_counts{2, 4, 8};
  std::printf("workload: %d pairs, %d reps, workers 2/4/8, gate < %d%%\n\n",
              kPairs, kReps, kMaxOverheadPct);

  core::ScidockOptions options;
  options.engine_mode = core::EngineMode::ForceAd4;
  const core::Experiment exp = core::make_experiment(
      data::table2_receptors(), data::table2_ligands(), kPairs, options);

  std::vector<double> tets;
  std::size_t trace_events = 0;
  std::size_t metric_series = 0;
  double wall_off_total = 0.0;
  double wall_on_total = 0.0;

  std::printf("%8s | %12s | %12s | %12s\n", "workers", "TET (sim)",
              "wall off", "wall on");
  std::printf("---------+--------------+--------------+-------------\n");
  for (const int workers : worker_counts) {
    double tet_off = 0.0;
    double tet_on = 0.0;
    double wall_off = 0.0;
    double wall_on = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      {
        const auto t0 = std::chrono::steady_clock::now();
        const wf::SimReport r = core::run_simulated(exp, workers);
        const double wall = wall_seconds_since(t0);
        tet_off = r.total_execution_time_s;
        wall_off = rep == 0 ? wall : std::min(wall_off, wall);
      }
      {
        obs::TraceRecorder trace;
        obs::MetricsRegistry metrics;
        wf::SimExecutorOptions sim_options;
        sim_options.obs = {&trace, &metrics};
        const auto t0 = std::chrono::steady_clock::now();
        const wf::SimReport r =
            core::run_simulated(exp, workers, nullptr, std::move(sim_options));
        const double wall = wall_seconds_since(t0);
        tet_on = r.total_execution_time_s;
        wall_on = rep == 0 ? wall : std::min(wall_on, wall);
        trace_events = trace.event_count();
        metric_series = metrics.series_count();
      }
    }
    if (tet_on != tet_off) {
      std::fprintf(stderr,
                   "FAIL: recording changed the simulation (TET %.6f vs "
                   "%.6f at %d workers)\n",
                   tet_on, tet_off, workers);
      return 1;
    }
    tets.push_back(tet_off);
    wall_off_total += wall_off;
    wall_on_total += wall_on;
    std::printf("%8d | %11.0fs | %11.3fs | %11.3fs\n", workers, tet_off,
                wall_off, wall_on);
  }

  // Speedups vs the 1-core-equivalent baseline (2 x TET at 2 workers,
  // bench_common's normalisation).
  const double serial = 2.0 * tets[0];
  const double overhead_pct =
      wall_off_total > 0.0
          ? 100.0 * (wall_on_total - wall_off_total) / wall_off_total
          : 0.0;

  std::printf("\nspeedup: %.2fx @2, %.2fx @4, %.2fx @8\n", serial / tets[0],
              serial / tets[1], serial / tets[2]);
  std::printf("recording cost: %zu trace events, %zu metric series, "
              "overhead %.2f%% (gate < %d%%)\n",
              trace_events, metric_series, overhead_pct, kMaxOverheadPct);

  if (overhead_pct >= kMaxOverheadPct) {
    std::fprintf(stderr, "FAIL: tracing overhead %.2f%% >= %d%%\n",
                 overhead_pct, kMaxOverheadPct);
    return 1;
  }
  return 0;
}
