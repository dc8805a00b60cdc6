// Sync-analysis overhead gate: the full native screen (10 receptors x 42
// ligands, the paper's Table 2 dataset) must stay within 5% of the
// uninstrumented baseline with lockdep on — the design goal that the
// analyzer is cheap enough to leave on for the whole test suite
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
// the bench prints "skipped". `ci/check.sh sync` runs it in the
// instrumented build.

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

namespace {

using namespace scidock;

constexpr std::ptrdiff_t kReceptors = 10;
constexpr std::ptrdiff_t kLigands = 42;
constexpr int kThreads = 4;
constexpr int kReps = 3;
constexpr int kMaxOverheadPct = 5;

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
    return 0;
  }

  const std::vector<std::string> receptors(
      data::table2_receptors().begin(),
      data::table2_receptors().begin() + kReceptors);
  const std::vector<std::string> ligands(
      data::table2_ligands().begin(), data::table2_ligands().begin() + kLigands);
  std::printf("workload: %zu receptors x %zu ligands, %d threads, %d reps, "
              "gate: lockdep < %d%%\n\n",
              receptors.size(), ligands.size(), kThreads, kReps,
              kMaxOverheadPct);

  Arm arms[] = {{"off", false}, {"lockdep", true}};
  Arm& off = arms[0];
  Arm& on = arms[1];

  std::printf("%4s | %10s | %10s\n%s\n", "rep", off.name, on.name,
              std::string(30, '-').c_str());
  for (int rep = 0; rep < kReps; ++rep) {
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
  std::printf("overhead: lockdep %.2f%% (gate < %d%%)\n", pct,
              kMaxOverheadPct);
  const bool passed = pct < kMaxOverheadPct;
  if (!passed) {
    std::fprintf(stderr, "FAIL: lockdep overhead %.2f%% >= %d%%\n", pct,
                 kMaxOverheadPct);
  }
  return passed ? 0 : 1;
}
