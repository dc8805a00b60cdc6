// SciDock benchmark harness.
//
//   perfbench --workload <screen_paper|screen_wide|campaign_replay>
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Prints one `{"info": ...}` line with the run's context, then as the last
// line {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics, or with --trace 1 the per-layer ones. Exit code 0 on a correct
// run, 1 when a correctness check failed, 2 on bad arguments, 3 when the
// build is instrumented and timings would be meaningless.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "util/lockdep.hpp"
#include "util/racer.hpp"
#include "util/simd.hpp"

namespace {

using perfbench::json_string;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload screen_paper|screen_wide|"
               "campaign_replay [--seed N] [--seconds S] [--trace 0|1]\n");
  return 2;
}

/// Why timings from this build would not be comparable, or "" if they are.
std::string instrumented_build() {
  std::string why;
  if (scidock::lockdep::compiled_in()) why += " lockdep";
  if (scidock::racer::compiled_in()) why += " racer";
  if (std::string(PERFBENCH_SANITIZE) != "") {
    why += std::string(" sanitizer=") + PERFBENCH_SANITIZE;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (why.find("sanitizer") == std::string::npos) why += " sanitizer";
#endif
  return why;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else return usage();
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();

  if (const std::string why = instrumented_build(); !why.empty()) {
    std::printf("skipped: instrumented build (%s ); no timings reported\n",
                why.c_str() + 1);
    return 3;
  }

  perfbench::RunResult result;
  try {
    if (args.workload == "screen_paper") result = perfbench::run_screen_paper(args);
    else if (args.workload == "screen_wide") result = perfbench::run_screen_wide(args);
    else if (args.workload == "campaign_replay")
      result = perfbench::run_campaign_replay(args);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.errors.push_back("metric " + name + " is not finite");
    }
  }

  result.info["workload"] = json_string(args.workload);
  result.info["trace"] = args.trace ? "true" : "false";
  result.info["simd_backend"] = json_string(scidock::simd::backend_name());
  result.info["lane_width"] = std::to_string(scidock::simd::f64x::kWidth);
  result.info["build_type"] = json_string(PERFBENCH_BUILD_TYPE);
  std::string errors = "[";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    errors += (i ? "," : "") + json_string(result.errors[i]);
    std::fprintf(stderr, "perfbench: check failed: %s\n", result.errors[i].c_str());
  }
  result.info["errors"] = errors + "]";

  std::string info = "{\"info\": {";
  const char* sep = "";
  for (const auto& [key, value] : result.info) {
    info += sep + json_string(key) + ": " + value;
    sep = ", ";
  }
  std::printf("%s}}\n", info.c_str());

  std::string metrics;
  sep = "";
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    metrics += sep + json_string(name) + ": {\"value\": " + value +
               ", \"unit\": " + json_string(metric.unit) + "}";
    sep = ", ";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": "
      "{%s}}\n",
      result.correct() ? "true" : "false", result.attempted, result.failed,
      metrics.c_str());
  return result.correct() ? 0 : 1;
}
