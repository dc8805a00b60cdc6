// Provenance WAL ingest + recovery perf gates (DESIGN.md §12).
//
// Three acceptance gates, each a hard exit-1 failure:
//   - sustained ingest with group commit on must reach 100k
//     activations/s;
//   - crash-recovery replay, projected to a 1M-activation log, must
//     finish within 5 s;
//   - peak RSS (VmHWM) must stay under 4096 MB — the WAL path must not
//     buffer the log in memory.
//
// The workload is fixed at 50k activations over 4 shards: the gates are
// rates, not totals, so they hold at this size. Wall-clock gates, so the
// binary runs serially in `ci/check.sh perf`, never under `ctest -j`.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "prov/prov.hpp"
#include "util/strings.hpp"
#include "vfs/vfs.hpp"

namespace {

using namespace scidock;

constexpr int kActivations = 50000;
constexpr int kShards = 4;
constexpr int kMinIngestPerS = 100000;
constexpr int kReplay1mLimitS = 5;
constexpr int kMaxRssMb = 4096;

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set (VmHWM) in MiB, or -1 where /proc is unavailable.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%lld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

}  // namespace

int main() {
  bench::print_header("SciDock bench: provenance WAL ingest + recovery",
                      "DESIGN.md SS12 durability gates");

  std::printf("workload: %d activations, %d shards, group commit on\n\n",
              kActivations, kShards);

  vfs::SharedFileSystem fs;
  prov::ProvenanceStoreOptions options;
  options.shard_count = kShards;
  options.vfs = &fs;
  options.wal_dir = "/prov";

  // ---- ingest: a full campaign recorded through the WAL ----
  prov::DurabilityStats stats;
  double ingest_wall = 0.0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    prov::ProvenanceStore store(options);
    store.record_machine(1, "std-large", 8, 1.0);
    store.record_machine(2, "std-xlarge", 16, 1.25);
    const long long wkf =
        store.begin_workflow("bench-ingest", "WAL ingest gate", "/exp", 0.0);
    const long long act =
        store.register_activity(wkf, "dock", "vina", "MAP");
    double t = 1.0;
    for (int i = 0; i < kActivations; ++i) {
      const long long task = store.begin_activation(
          act, wkf, t, 1 + (i & 1), "pair-" + std::to_string(i));
      store.end_activation(task, t + 0.5, prov::kStatusFinished, 0, 1);
      t += 0.001;
    }
    store.end_workflow(wkf, t);
    store.flush();
    ingest_wall = wall_seconds_since(t0);
    stats = store.durability_stats();
  }
  const double ingest_rate = static_cast<double>(kActivations) / ingest_wall;
  std::printf("ingest:  %d activations in %.3f s -> %.0f act/s "
              "(%lld records, %lld group commits, %lld rotations)\n",
              kActivations, ingest_wall, ingest_rate, stats.records_durable,
              stats.group_commits, stats.segment_rotations);

  // ---- recovery: reopen the directory, replay everything ----
  const auto t0 = std::chrono::steady_clock::now();
  prov::ProvenanceStore replayed(options);
  const double replay_wall = wall_seconds_since(t0);
  const prov::RecoveryReport& rec = replayed.last_recovery();
  const double projected_1m =
      replay_wall * (1000000.0 / static_cast<double>(kActivations));
  std::printf("replay:  %zu records / %zu segments in %.3f s "
              "-> %.2f s per 1M activations\n",
              rec.records, rec.segments, replay_wall, projected_1m);

  const double rss = peak_rss_mb();
  std::printf("memory:  peak RSS %.1f MB\n\n", rss);

  // ---- correctness sanity before the perf gates mean anything ----
  bool ok = true;
  if (rec.records != static_cast<std::size_t>(stats.records_durable) ||
      rec.truncated_bytes != 0 || rec.orphan_rows != 0) {
    std::printf("FAIL: replay mismatch (%zu records vs %lld durable, "
                "%zu truncated bytes, %zu orphans)\n",
                rec.records, stats.records_durable, rec.truncated_bytes,
                rec.orphan_rows);
    ok = false;
  }

  bench::print_compare("ingest rate",
                       strformat(">= %d act/s", kMinIngestPerS),
                       strformat("%.0f act/s", ingest_rate));
  if (ingest_rate < kMinIngestPerS) {
    std::printf("FAIL: ingest gate\n");
    ok = false;
  }
  bench::print_compare("1M-activation replay",
                       strformat("<= %d s", kReplay1mLimitS),
                       strformat("%.2f s", projected_1m));
  if (projected_1m > kReplay1mLimitS) {
    std::printf("FAIL: replay gate\n");
    ok = false;
  }
  bench::print_compare("peak RSS",
                       strformat("<= %d MB", kMaxRssMb),
                       rss < 0 ? "n/a" : strformat("%.1f MB", rss));
  if (rss > kMaxRssMb) {
    std::printf("FAIL: RSS gate\n");
    ok = false;
  }

  std::printf("%s\n", ok ? "all gates passed" : "GATES FAILED");
  return ok ? 0 : 1;
}
