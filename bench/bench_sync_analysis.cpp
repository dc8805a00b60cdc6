// Sync-analysis overhead gate: the full native screen (default 10
// receptors x 42 ligands, the paper's Table 2 dataset) must stay within
// 5% of the uninstrumented baseline with lockdep on — the design goal
// that the analyzer is cheap enough to leave on for the whole test suite
// (DESIGN.md §11).
//
// One binary, two arms, chosen with lockdep's runtime kill switch: off
// (the baseline) and on. Both arms run the same code, so the comparison
// isolates the bookkeeping, not codegen differences. Each rep runs both
// arms, alternating which goes first; an arm's time is its minimum over
// reps, which cancels scheduler noise better than the mean on shared
// machines. The instrumented arm must end with a clean report.
//
// Built without -DSCIDOCK_SYNC_ANALYSIS=ON there is nothing to measure:
// the bench prints "skipped" and records "status": "skipped".
//
// Knobs: SCIDOCK_SYNC_RECEPTORS / _LIGANDS / _REPS, and
// SCIDOCK_SYNC_MAX_OVERHEAD_PCT, which when set replaces the gate.
//
// Writes BENCH_sync_analysis.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "data/table2.hpp"
#include "scidock/experiment.hpp"
#include "util/lockdep.hpp"
#include "util/strings.hpp"

namespace {

using namespace scidock;

constexpr int kThreads = 4;

std::vector<std::string> take(const std::vector<std::string>& all, int n) {
  const std::size_t count =
      std::min(all.size(), static_cast<std::size_t>(std::max(n, 1)));
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count)};
}

/// One full native screen over a freshly staged experiment (fresh VFS and
/// grid-map cache each time, so no arm inherits another's warm caches).
/// Returns (wall seconds, output rows).
std::pair<double, std::size_t> run_screen(
    const std::vector<std::string>& receptors,
    const std::vector<std::string>& ligands) {
  core::Experiment exp = core::make_experiment(receptors, ligands, 0);
  const auto t0 = std::chrono::steady_clock::now();
  const wf::NativeReport report = core::run_native(exp, kThreads);
  return {std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count(),
          report.output.size()};
}

struct Arm {
  const char* name;
  bool lockdep;
  double best_s = 0.0;
  std::size_t rows = 0;
};

}  // namespace

int main() {
  bench::print_header("SciDock bench: sync-analysis overhead",
                      "design goal: lockdep cheap enough to leave on");

  if (!lockdep::compiled_in()) {
    std::printf("skipped: lockdep compiled out (configure with "
                "-DSCIDOCK_SYNC_ANALYSIS=ON)\n");
    const std::string path = bench::write_bench_json(
        "sync_analysis", {{"status", "\"skipped\""}, {"compiled_in", "false"}});
    return path.empty() ? 1 : 0;
  }

  const int n_receptors = bench::env_int("SCIDOCK_SYNC_RECEPTORS", 10);
  const int n_ligands = bench::env_int("SCIDOCK_SYNC_LIGANDS", 42);
  const int reps = std::max(bench::env_int("SCIDOCK_SYNC_REPS", 3), 1);
  const int gate = bench::env_int("SCIDOCK_SYNC_MAX_OVERHEAD_PCT", 5);
  const std::vector<std::string> receptors =
      take(data::table2_receptors(), n_receptors);
  const std::vector<std::string> ligands =
      take(data::table2_ligands(), n_ligands);
  std::printf("workload: %zu receptors x %zu ligands, %d threads, %d reps, "
              "gate: lockdep < %d%%\n\n",
              receptors.size(), ligands.size(), kThreads, reps, gate);

  Arm arms[] = {{"off", false}, {"lockdep", true}};
  Arm& off = arms[0];
  Arm& on = arms[1];

  std::printf("%4s | %10s | %10s\n%s\n", "rep", off.name, on.name,
              std::string(30, '-').c_str());
  for (int rep = 0; rep < reps; ++rep) {
    double wall[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      const int a = (rep + i) % 2;
      Arm& arm = arms[a];
      lockdep::set_enabled(arm.lockdep);
      const auto [seconds, rows] = run_screen(receptors, ligands);
      arm.best_s = rep == 0 ? seconds : std::min(arm.best_s, seconds);
      arm.rows = rows;
      wall[a] = seconds;
    }
    std::printf("%4d | %9.3fs | %9.3fs\n", rep, wall[0], wall[1]);
  }
  lockdep::set_enabled(true);

  if (on.rows != off.rows || off.rows == 0) {
    std::fprintf(stderr,
                 "FAIL: arms disagree on the screen itself (off: %zu, "
                 "lockdep: %zu output rows)\n",
                 off.rows, on.rows);
    return 1;
  }
  // An error-severity finding here is a genuine lock-discipline
  // regression in the product.
  if (!lockdep::clean()) {
    std::fprintf(stderr, "FAIL: the instrumented arm is not clean:\n%s",
                 lockdep::format_report().c_str());
    return 1;
  }

  const lockdep::CounterSnapshot ld = lockdep::counters();
  std::printf("\nlockdep: %lld acquisitions, %lld order edges checked\n",
              ld.acquisitions, ld.order_edges);

  const double pct = 100.0 * (on.best_s - off.best_s) / off.best_s;
  std::printf("overhead: lockdep %.2f%% (gate < %d%%)\n", pct, gate);
  const bool passed = pct < gate;
  const std::string path = bench::write_bench_json(
      "sync_analysis",
      {
          {"status", passed ? "\"passed\"" : "\"failed\""},
          {"compiled_in", "true"},
          {"receptors", strformat("%zu", receptors.size())},
          {"ligands", strformat("%zu", ligands.size())},
          {"threads", strformat("%d", kThreads)},
          {"reps", strformat("%d", reps)},
          {"output_rows", strformat("%zu", off.rows)},
          {"acquisitions", strformat("%lld", ld.acquisitions)},
          {"wall_off_s", strformat("%.4f", off.best_s)},
          {"wall_lockdep_s", strformat("%.4f", on.best_s)},
          {"lockdep_overhead_pct", strformat("%.3f", pct)},
          {"lockdep_gate_pct", strformat("%d", gate)},
      });
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());

  if (!passed) {
    std::fprintf(stderr, "FAIL: lockdep overhead %.2f%% >= %d%%\n", pct,
                 gate);
  }
  return passed ? 0 : 1;
}
