// Sync-analysis overhead gate: the full native screen (default 10
// receptors x 42 ligands, the paper's Table 2 dataset) must stay within
// 5% of the uninstrumented baseline with lockdep on and within 10% with
// racer on — the design goal that both analyzers are cheap enough to
// leave on for the whole test suite (DESIGN.md §11). Racer's budget is
// double lockdep's: every tracked access pays a shadow-state check, not
// just every lock acquisition.
//
// One binary, four arms, chosen with the analyzers' runtime kill
// switches: both off (the baseline), lockdep only, racer only, and both
// on (printed, not gated). Every arm runs the same code, so the
// comparison isolates the bookkeeping, not codegen differences. Each rep
// runs every arm once, rotating which goes first; an arm's time is its
// minimum over reps, which cancels scheduler noise better than the mean
// on shared machines. The instrumented arms must end with a clean report.
//
// Built without -DSCIDOCK_SYNC_ANALYSIS=ON there is nothing to measure:
// the bench prints "skipped" and records "status": "skipped".
//
// Knobs: SCIDOCK_SYNC_RECEPTORS / _LIGANDS / _REPS, and
// SCIDOCK_SYNC_MAX_OVERHEAD_PCT, which when set replaces both gates.
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
#include "util/racer.hpp"
#include "util/strings.hpp"
#include "util/sync_events.hpp"

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
  bool racer;
  int gate;  // overhead gate in %; < 0: not gated
  double best_s = 0.0;
  std::size_t rows = 0;
};

}  // namespace

int main() {
  bench::print_header("SciDock bench: sync-analysis overhead",
                      "design goal: both analyzers cheap enough to leave on");

  if (!sync::compiled_in()) {
    std::printf("skipped: analyzers compiled out (configure with "
                "-DSCIDOCK_SYNC_ANALYSIS=ON)\n");
    const std::string path = bench::write_bench_json(
        "sync_analysis", {{"status", "\"skipped\""}, {"compiled_in", "false"}});
    return path.empty() ? 1 : 0;
  }

  const int n_receptors = bench::env_int("SCIDOCK_SYNC_RECEPTORS", 10);
  const int n_ligands = bench::env_int("SCIDOCK_SYNC_LIGANDS", 42);
  const int reps = std::max(bench::env_int("SCIDOCK_SYNC_REPS", 3), 1);
  const int forced_gate = bench::env_int("SCIDOCK_SYNC_MAX_OVERHEAD_PCT", -1);
  const int lockdep_gate = forced_gate >= 0 ? forced_gate : 5;
  const int racer_gate = forced_gate >= 0 ? forced_gate : 10;
  const std::vector<std::string> receptors =
      take(data::table2_receptors(), n_receptors);
  const std::vector<std::string> ligands =
      take(data::table2_ligands(), n_ligands);
  std::printf("workload: %zu receptors x %zu ligands, %d threads, %d reps, "
              "gates: lockdep < %d%%, racer < %d%%\n\n",
              receptors.size(), ligands.size(), kThreads, reps, lockdep_gate,
              racer_gate);

  std::vector<Arm> arms = {{"off", false, false, -1},
                           {"lockdep", true, false, lockdep_gate},
                           {"racer", false, true, racer_gate},
                           {"both", true, true, -1}};

  std::printf("%4s", "rep");
  for (const Arm& arm : arms) std::printf(" | %10s", arm.name);
  std::printf("\n%s\n", std::string(4 + 13 * arms.size(), '-').c_str());
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<double> wall(arms.size());
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const std::size_t a = (static_cast<std::size_t>(rep) + i) % arms.size();
      Arm& arm = arms[a];
      lockdep::set_enabled(arm.lockdep);
      racer::set_enabled(arm.racer);
      const auto [seconds, rows] = run_screen(receptors, ligands);
      arm.best_s = rep == 0 ? seconds : std::min(arm.best_s, seconds);
      arm.rows = rows;
      wall[a] = seconds;
    }
    std::printf("%4d", rep);
    for (const double seconds : wall) std::printf(" | %9.3fs", seconds);
    std::printf("\n");
  }
  lockdep::set_enabled(true);
  racer::set_enabled(true);

  const Arm& off = arms[0];
  for (const Arm& arm : arms) {
    if (arm.rows != off.rows || arm.rows == 0) {
      std::fprintf(stderr,
                   "FAIL: arms disagree on the screen itself (off: %zu, "
                   "%s: %zu output rows)\n",
                   off.rows, arm.name, arm.rows);
      return 1;
    }
  }
  // An error-severity finding here is a genuine lock-discipline or
  // concurrency regression in the product.
  if (!lockdep::clean() || !racer::clean()) {
    std::fprintf(stderr, "FAIL: the instrumented arms are not clean:\n%s%s",
                 lockdep::format_report().c_str(),
                 racer::format_report().c_str());
    return 1;
  }

  const lockdep::CounterSnapshot ld = lockdep::counters();
  const racer::CounterSnapshot rc = racer::counters();
  std::printf("\nlockdep: %lld acquisitions, %lld order edges checked; "
              "racer: %lld reads + %lld writes checked over %lld cells, "
              "%lld mutex + %lld task edges\n",
              ld.acquisitions, ld.order_edges, rc.reads, rc.writes, rc.cells,
              rc.mutex_edges, rc.task_edges);

  std::vector<bench::JsonField> fields = {
      {"status", ""},
      {"compiled_in", "true"},
      {"receptors", strformat("%zu", receptors.size())},
      {"ligands", strformat("%zu", ligands.size())},
      {"threads", strformat("%d", kThreads)},
      {"reps", strformat("%d", reps)},
      {"output_rows", strformat("%zu", off.rows)},
      {"acquisitions", strformat("%lld", ld.acquisitions)},
      {"tracked_accesses", strformat("%lld", rc.reads + rc.writes)},
  };
  std::string failures;
  std::printf("overhead:");
  for (const Arm& arm : arms) {
    fields.push_back(
        {strformat("wall_%s_s", arm.name), strformat("%.4f", arm.best_s)});
    if (&arm == &off) continue;
    const double pct = 100.0 * (arm.best_s - off.best_s) / off.best_s;
    fields.push_back(
        {strformat("%s_overhead_pct", arm.name), strformat("%.3f", pct)});
    if (arm.gate < 0) {
      std::printf(" %s %.2f%% (not gated)", arm.name, pct);
      continue;
    }
    std::printf(" %s %.2f%% (gate < %d%%)", arm.name, pct, arm.gate);
    fields.push_back(
        {strformat("%s_gate_pct", arm.name), strformat("%d", arm.gate)});
    if (pct >= arm.gate) {
      failures += strformat("FAIL: %s overhead %.2f%% >= %d%%\n", arm.name,
                            pct, arm.gate);
    }
  }
  std::printf("\n");
  fields[0].value = failures.empty() ? "\"passed\"" : "\"failed\"";

  const std::string path = bench::write_bench_json("sync_analysis", fields);
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());

  std::fprintf(stderr, "%s", failures.c_str());
  return failures.empty() ? 0 : 1;
}
