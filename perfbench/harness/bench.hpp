#pragma once

/// \file bench.hpp
/// The SciDock benchmark harness: shared types of the workload runners
/// (workloads.cpp), the seeded input sampler (sample.cpp) and the probes
/// that time each layer from outside its public entry points (probes.cpp).
///
/// Nothing here instruments src/: layers are measured by timing calls into
/// them, by wrapping each wf::Stage::impl, by reading the obs registry the
/// executors already feed, and by parsing the docking logs they write.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "prov/prov.hpp"
#include "vfs/vfs.hpp"
#include "wf/native_executor.hpp"
#include "wf/pipeline.hpp"

namespace perfbench {

// ---------------------------------------------------------------------
// Run parameters and results
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< measuring budget of one run
  bool trace = false;     ///< per-layer (traced) run instead of timed run
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  long long attempted = 0;  ///< input pairs over every batch of the run
  long long failed = 0;     ///< pairs with no place (conservation breaks)
  Metrics metrics;
  std::vector<std::string> errors;  ///< failed correctness checks
  /// Context recorded with the result; values are JSON literals.
  std::map<std::string, std::string> info;

  bool correct() const { return errors.empty() && failed == 0; }
};

double now_s();
/// Median and linear-interpolated quantile (q in [0, 1]); 0 when empty.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);
std::string json_string(const std::string& s);
std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ULL);

int hardware_threads();
/// Peak resident memory of the process so far, as the peak_rss_mb metric.
Metric peak_rss();

// ---------------------------------------------------------------------
// Workloads (workloads.cpp)
// ---------------------------------------------------------------------

RunResult run_screen_paper(const Args& args);
RunResult run_screen_wide(const Args& args);
RunResult run_campaign_replay(const Args& args);

// ---------------------------------------------------------------------
// Seeded input sampling (sample.cpp)
// ---------------------------------------------------------------------

/// `count` Table 2 receptors for `seed`. Seed 0 returns the first `count`
/// receptors in Table 2 order. Any other seed draws a sample with the same
/// class at every position as the seed-0 sample (class = Hg-bearing, or
/// else the engine the docking filter routes to), each class drawn
/// stratified by residue count, so every draw keeps the Vina share, the Hg
/// receptors and the routing order that decides which pairs the output
/// relation keeps.
std::vector<std::string> draw_receptors(std::size_t count, std::uint64_t seed);

// ---------------------------------------------------------------------
// Layer probes (probes.cpp)
// ---------------------------------------------------------------------

/// Per-stage call durations gathered by the stage wrappers of a traced run.
class StageProbe {
 public:
  void record(const std::string& tag, double seconds);
  /// Durations of every call (finished or thrown) of one stage.
  std::vector<double> samples(const std::string& tag) const;
  double total_seconds() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> seconds_;
};

/// Copy of `pipeline` whose stage impls time every call into `probe` and
/// open a "bench.stage" span on `trace` around it.
scidock::wf::Pipeline wrap_stages(const scidock::wf::Pipeline& pipeline,
                                  std::shared_ptr<StageProbe> probe,
                                  scidock::obs::TraceRecorder* trace);

/// One AD4 .dlg or Vina .log found on the VFS after a native run.
struct DockLog {
  std::string pair;
  std::string engine;      ///< "ad4" or "vina", from the producing stage
  long long evaluations = 0;  ///< NUMBER OF ENERGY EVALUATIONS line
  int conformations = 0;
  double best_feb = 0.0;
  double mean_rmsd = 0.0;
  bool parsed = false;     ///< parse_docking_log accepted it
};
std::vector<DockLog> read_dock_logs(const scidock::vfs::SharedFileSystem& fs,
                                    const std::string& expdir);
/// Order-independent digest of every log's FEB/RMSD (information only).
std::string feb_rmsd_digest(const std::vector<DockLog>& logs);

/// Where each input pair of a native screen ended up.
struct Conservation {
  long long in_output = 0;
  long long lost = 0;      ///< counted by the executor as lost
  long long dropped = 0;   ///< docked (valid log) but absent from the output
  long long unplaced = 0;  ///< none of the above, or placed twice
  std::vector<std::string> errors;
};
Conservation check_conservation(const scidock::wf::Relation& input,
                                const scidock::wf::NativeReport& report,
                                const std::vector<DockLog>& logs,
                                scidock::prov::ProvenanceStore& store,
                                int max_attempts);

/// The paper's provenance query suite over one workflow: Query 1, the
/// Figure 5 histogram, failed-by-activity, Hg aborts and steering top-k.
struct QuerySuite {
  double pass_seconds = 0.0;               ///< median wall time of one pass
  std::map<std::string, double> median_ms;  ///< per query
  std::map<std::string, long long> rows;   ///< per query (same every pass)
  std::vector<std::string> errors;
};
QuerySuite run_query_suite(scidock::prov::ProvenanceStore& store,
                           const std::string& workflow_tag, int passes);

}  // namespace perfbench
