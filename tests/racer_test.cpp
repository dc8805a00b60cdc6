// Race-freedom suite (DESIGN.md §11.2). The negative controls plant the
// real hazard *shapes* on purpose — an unguarded counter (RC001), reads
// racing writes (RC002), an object published across threads with no
// happens-before edge (RC003) and an order-sensitive reduction (RC004) —
// and assert on the exact rule IDs, both access sites and the
// missing-edge diagnosis the analyzer reports. The racing accesses are
// sequenced with *real but uninstrumented* synchronisation (std::thread
// join, seq_cst flags), so each report is deterministic and the test
// binary itself is ThreadSanitizer-clean; the genuinely racy fixtures
// for the TSan cross-check live in sync_planted_main.cpp instead.
// Positive controls prove the owned edges (named Mutex, ThreadPool
// fork/join, on_hb_* handshake) silence the same shapes, and the bridge
// tests cover racer's side of the shared sync-analysis bridges:
// obs::publish_sync_metrics, InvariantChecker::check_sync and
// lint::sync_report. Provocation tests skip unless built with
// -DSCIDOCK_SYNC_ANALYSIS=ON; the disabled-behavior test runs (only) when
// it is compiled out, so both configurations exercise this binary.

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.hpp"
#include "chaos/invariants.hpp"
#include "data/table2.hpp"
#include "lint/diagnostics.hpp"
#include "lint/sync_lint.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "scidock/experiment.hpp"
#include "util/lockdep.hpp"
#include "util/racer.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace scidock {
namespace {

// ---------------------------------------------------------------------------
// Both configurations: stable rule IDs and report names.

TEST(RacerRules, StableRuleIds) {
  EXPECT_EQ(racer::rule_id(racer::ReportKind::kWriteWrite), "RC001");
  EXPECT_EQ(racer::rule_id(racer::ReportKind::kReadWrite), "RC002");
  EXPECT_EQ(racer::rule_id(racer::ReportKind::kUnsyncPublish), "RC003");
  EXPECT_EQ(racer::rule_id(racer::ReportKind::kOrderNondeterminism), "RC004");
  EXPECT_EQ(racer::to_string(racer::ReportKind::kWriteWrite),
            "write-write race");
  EXPECT_EQ(racer::to_string(racer::ReportKind::kReadWrite),
            "read-write race");
  EXPECT_EQ(racer::to_string(racer::ReportKind::kUnsyncPublish),
            "unsynchronized publish");
  EXPECT_EQ(racer::to_string(racer::ReportKind::kOrderNondeterminism),
            "order nondeterminism");
}

// ---------------------------------------------------------------------------
// Compiled-out configuration: every entry point must be inert and every
// bridge trivially clean, so OFF builds pay nothing and fail nothing.

TEST(RacerDisabled, AllBridgesAreInertWhenCompiledOut) {
  if (racer::compiled_in()) {
    GTEST_SKIP() << "built with SCIDOCK_SYNC_ANALYSIS=ON";
  }
  EXPECT_NE(racer::format_report().find("disabled"), std::string::npos);
  EXPECT_TRUE(racer::clean());
  EXPECT_TRUE(racer::findings().empty());
  EXPECT_EQ(racer::counters().reads, 0);
  EXPECT_FALSE(racer::enabled());

  // Cell is a bare T; the macros and edges are no-ops that still compile.
  racer::Cell<int> cell{5, "test.off.cell"};
  EXPECT_EQ(cell.read(), 5);
  cell.write(6);
  cell.mutate() += 1;
  EXPECT_EQ(cell.read(), 7);
  int raw = 0;
  SCIDOCK_RACER_TRACK(raw, "test.off.raw");
  SCIDOCK_RACER_WRITE(raw);
  raw = 1;
  SCIDOCK_RACER_READ(raw);
  SCIDOCK_RACER_UNTRACK(raw);
  EXPECT_EQ(raw, 1);
  racer::TaskEdge edge = racer::on_task_spawn();
  {
    racer::TaskRun run(edge);
  }
  racer::on_task_join(edge);
  racer::on_reduction("test.off.red", 1, 2);
  EXPECT_TRUE(racer::reduction_snapshot().empty());
  EXPECT_EQ(racer::compare_reduction_snapshots({}, {}, "a", "b"), 0);

  chaos::InvariantChecker checker;
  EXPECT_TRUE(checker.check_sync());
  EXPECT_TRUE(checker.ok());

  EXPECT_TRUE(lint::sync_report().clean());

  obs::MetricsRegistry registry;
  obs::publish_sync_metrics(registry);
  EXPECT_EQ(registry.series_count(), 0u);
}

// ---------------------------------------------------------------------------
// Compiled-in configuration. Each test resets both analyzers (the
// bridges report them together); tracked objects and reductions are
// named after their test so shadow state can never entangle across
// tests.

class RacerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!racer::compiled_in()) {
      GTEST_SKIP() << "requires -DSCIDOCK_SYNC_ANALYSIS=ON";
    }
#if SCIDOCK_RACER_ENABLED
    racer::reset();
    racer::set_enabled(true);
    lockdep::reset();
#endif
  }

  void TearDown() override {
#if SCIDOCK_RACER_ENABLED
    if (!racer::compiled_in()) return;
    racer::set_enabled(true);
    racer::reset();
    lockdep::reset();
#endif
  }
};

#if SCIDOCK_RACER_ENABLED

std::optional<racer::Finding> first_finding(racer::ReportKind kind) {
  for (const racer::Finding& f : racer::findings()) {
    if (f.kind == kind) return f;
  }
  return std::nullopt;
}

bool has_site(const std::string& text, int line) {
  return text.find("racer_test.cpp:" + std::to_string(line)) !=
         std::string::npos;
}

#endif  // SCIDOCK_RACER_ENABLED

// Negative control 1 (ISSUE acceptance): the unguarded counter. A pool-
// style fork edge makes the worker a known accessor of the cell, then
// main writes again without a join edge — RC001 with both file:line
// sites and the missing-edge diagnosis. The std::thread::join keeps the
// accesses truly ordered (no UB here); the analyzer just cannot see it,
// which is exactly the unguarded counter's bug.
TEST_F(RacerTest, UnguardedCounterReportsWriteWriteRaceWithBothSites) {
#if SCIDOCK_RACER_ENABLED
  racer::Cell<int> counter{0, "test.rc001.counter"};
  racer::TaskEdge edge = racer::on_task_spawn();
  int thread_line = 0;
  std::thread t([&] {
    racer::TaskRun run(edge);
    thread_line = __LINE__ + 1;
    counter.write(1);
  });
  t.join();  // real order, but no racer::on_task_join: edge unknown
  const int main_line = __LINE__ + 1;
  counter.write(2);

  EXPECT_FALSE(racer::clean());
  EXPECT_EQ(racer::finding_count(racer::ReportKind::kWriteWrite), 1u);
  const auto f = first_finding(racer::ReportKind::kWriteWrite);
  ASSERT_TRUE(f.has_value()) << racer::format_report();
  EXPECT_TRUE(f->is_error);
  EXPECT_EQ(f->object, "test.rc001.counter");
  EXPECT_NE(f->message.find("write-write race"), std::string::npos)
      << f->message;
  // Both access sites, exactly.
  EXPECT_NE(f->file.find("racer_test.cpp"), std::string::npos) << f->file;
  EXPECT_EQ(f->line, main_line);
  EXPECT_NE(f->prior_file.find("racer_test.cpp"), std::string::npos);
  EXPECT_EQ(f->prior_line, thread_line);
  EXPECT_TRUE(has_site(f->details, main_line)) << f->details;
  EXPECT_TRUE(has_site(f->details, thread_line)) << f->details;
  // The diagnosis says why there is no edge and how to add one.
  EXPECT_NE(f->details.find("neither access holds a lock"),
            std::string::npos)
      << f->details;
  EXPECT_NE(f->details.find("missing edge"), std::string::npos) << f->details;
  EXPECT_NE(racer::format_report().find("[RC001]"), std::string::npos);
#endif
}

// The guarded twin: the same counter shape under a named Mutex is clean —
// the release→acquire edges order every mutation.
TEST_F(RacerTest, GuardedCounterIsClean) {
#if SCIDOCK_RACER_ENABLED
  Mutex guard{"test.racer.guard"};
  racer::Cell<long> counter{0, "test.racer.guarded_counter"};
  racer::TaskEdge e1 = racer::on_task_spawn();
  racer::TaskEdge e2 = racer::on_task_spawn();
  auto work = [&](const racer::TaskEdge& edge) {
    racer::TaskRun run(edge);
    for (int i = 0; i < 100; ++i) {
      MutexLock lock(guard);
      counter.mutate() += 1;
    }
  };
  std::thread t1(work, std::cref(e1));
  std::thread t2(work, std::cref(e2));
  t1.join();
  t2.join();
  racer::on_task_join(e1);
  racer::on_task_join(e2);
  EXPECT_EQ(counter.read(), 200);
  EXPECT_TRUE(racer::clean()) << racer::format_report();
  EXPECT_TRUE(racer::findings().empty());
  EXPECT_GE(racer::counters().mutex_edges, 1);
  EXPECT_NE(racer::format_report().find("clean"), std::string::npos);
#endif
}

// Negative control 2: a read unordered with the last write is RC002,
// again with both sites.
TEST_F(RacerTest, ReadUnorderedWithWriteIsRC002) {
#if SCIDOCK_RACER_ENABLED
  racer::Cell<int> cell{0, "test.rc002.cell"};
  racer::TaskEdge edge = racer::on_task_spawn();
  int write_line = 0;
  std::thread t([&] {
    racer::TaskRun run(edge);
    write_line = __LINE__ + 1;
    cell.write(3);
  });
  t.join();  // no racer join edge
  const int read_line = __LINE__ + 1;
  const int seen = cell.read();
  EXPECT_EQ(seen, 3);

  EXPECT_EQ(racer::finding_count(racer::ReportKind::kReadWrite), 1u);
  const auto f = first_finding(racer::ReportKind::kReadWrite);
  ASSERT_TRUE(f.has_value()) << racer::format_report();
  EXPECT_TRUE(f->is_error);
  EXPECT_NE(f->message.find("read-write race"), std::string::npos);
  EXPECT_EQ(f->line, read_line);
  EXPECT_EQ(f->prior_line, write_line);
  EXPECT_NE(racer::format_report().find("[RC002]"), std::string::npos);
#endif
}

// The reads list works in the other direction too: a write unordered
// with a prior *read* from another thread is the same RC002.
TEST_F(RacerTest, WriteUnorderedWithReadIsRC002) {
#if SCIDOCK_RACER_ENABLED
  racer::Cell<int> cell{0, "test.rc002w.cell"};
  racer::TaskEdge edge = racer::on_task_spawn();
  int read_line = 0;
  int seen = 0;
  std::thread t([&] {
    racer::TaskRun run(edge);
    read_line = __LINE__ + 1;
    seen = cell.read();
  });
  t.join();
  EXPECT_EQ(seen, 0);
  const int write_line = __LINE__ + 1;
  cell.write(9);

  EXPECT_EQ(racer::finding_count(racer::ReportKind::kReadWrite), 1u);
  const auto f = first_finding(racer::ReportKind::kReadWrite);
  ASSERT_TRUE(f.has_value()) << racer::format_report();
  EXPECT_EQ(f->line, write_line);
  EXPECT_EQ(f->prior_line, read_line);
  EXPECT_NE(f->message.find("write at"), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("read at"), std::string::npos) << f->message;
#endif
}

// Negative control 3: the first time another thread touches an object
// with no happens-before edge since its last write, the report is the
// publish-specific RC003, not a generic race.
TEST_F(RacerTest, UnsynchronizedPublishIsRC003) {
#if SCIDOCK_RACER_ENABLED
  const int track_line = __LINE__ + 1;
  racer::Cell<int> obj{7, "test.rc003.obj"};
  int read_line = 0;
  int seen = 0;
  std::thread t([&] {  // no fork edge at all: the object just escapes
    read_line = __LINE__ + 1;
    seen = obj.read();
  });
  t.join();
  EXPECT_EQ(seen, 7);

  EXPECT_EQ(racer::finding_count(racer::ReportKind::kUnsyncPublish), 1u);
  EXPECT_EQ(racer::finding_count(racer::ReportKind::kReadWrite), 0u);
  const auto f = first_finding(racer::ReportKind::kUnsyncPublish);
  ASSERT_TRUE(f.has_value()) << racer::format_report();
  EXPECT_TRUE(f->is_error);
  EXPECT_NE(f->message.find("unsynchronized publish of 'test.rc003.obj'"),
            std::string::npos)
      << f->message;
  EXPECT_NE(f->message.find("first access from another thread"),
            std::string::npos)
      << f->message;
  EXPECT_EQ(f->line, read_line);
  EXPECT_EQ(f->prior_line, track_line);  // tracking is the initial write
  EXPECT_NE(racer::format_report().find("[RC003]"), std::string::npos);
#endif
}

// The publish-handshake positive control: on_hb_release before the
// handoff and on_hb_acquire after observing it silence RC003 — this is
// the single-flight grid-map pattern.
TEST_F(RacerTest, HbHandshakeOrdersPublishAcrossThreads) {
#if SCIDOCK_RACER_ENABLED
  int payload = 0;
  int token = 0;  // any stable address keys the handshake
  SCIDOCK_RACER_TRACK(payload, "test.racer.payload");
  SCIDOCK_RACER_WRITE(payload);
  payload = 42;
  racer::on_hb_release(&token, "test.racer.flight");
  int seen = 0;
  std::thread t([&] {
    racer::on_hb_acquire(&token, "test.racer.flight");
    SCIDOCK_RACER_READ(payload);
    seen = payload;
  });
  t.join();
  EXPECT_EQ(seen, 42);
  EXPECT_TRUE(racer::findings().empty()) << racer::format_report();
  EXPECT_GE(racer::counters().hb_edges, 2);
  SCIDOCK_RACER_UNTRACK(payload);
#endif
}

// parallel_for's fork and join edges make the per-index-bucket idiom
// (native executor's final_tuples) clean: each bucket is written by one
// task and read by main only after the join.
TEST_F(RacerTest, ParallelForJoinEdgesMakePerIndexBucketsClean) {
#if SCIDOCK_RACER_ENABLED
  ThreadPool pool(2);
  std::array<int, 8> buckets{};
  for (auto& b : buckets) {
    SCIDOCK_RACER_TRACK(b, "test.racer.bucket");
  }
  pool.parallel_for(buckets.size(), [&](std::size_t i) {
    SCIDOCK_RACER_WRITE(buckets[i]);
    buckets[i] = static_cast<int>(i);
  });
  int sum = 0;
  for (auto& b : buckets) {
    SCIDOCK_RACER_READ(b);
    sum += b;
  }
  EXPECT_EQ(sum, 28);
  EXPECT_TRUE(racer::clean()) << racer::format_report();
  EXPECT_TRUE(racer::findings().empty());
  EXPECT_GE(racer::counters().task_edges, 1);
  for (auto& b : buckets) {
    SCIDOCK_RACER_UNTRACK(b);
  }
#endif
}

// ---- RC004: order nondeterminism in reductions ----

// Two tasks feeding different values into one slot of a reduction is an
// immediate in-run RC004 naming the reduction and the key.
TEST_F(RacerTest, ConflictingContributionInOneRunIsImmediateRC004) {
#if SCIDOCK_RACER_ENABLED
  racer::on_reduction("test.red.inrun", 7, 0x111);
  racer::on_reduction("test.red.inrun", 7, 0x111);  // re-record: fine
  EXPECT_TRUE(racer::findings().empty());
  racer::on_reduction("test.red.inrun", 7, 0x222);
  EXPECT_EQ(racer::finding_count(racer::ReportKind::kOrderNondeterminism),
            1u);
  const auto f = first_finding(racer::ReportKind::kOrderNondeterminism);
  ASSERT_TRUE(f.has_value()) << racer::format_report();
  EXPECT_TRUE(f->is_error);
  EXPECT_EQ(f->object, "test.red.inrun");
  EXPECT_NE(f->message.find("key 7"), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("conflicting contributions"), std::string::npos);
  EXPECT_FALSE(racer::clean());
  // Deduped: a third conflicting value on the same key files nothing new.
  racer::on_reduction("test.red.inrun", 7, 0x333);
  EXPECT_EQ(racer::finding_count(racer::ReportKind::kOrderNondeterminism),
            1u);
  EXPECT_NE(racer::format_report().find("[RC004]"), std::string::npos);
#endif
}

// Cross-run diff (1-thread vs N-thread sweep): a per-key hash difference
// is an RC004 *error* naming the culprit reduction and the first
// divergent key.
TEST_F(RacerTest, SnapshotDiffNamesCulpritReductionAndKey) {
#if SCIDOCK_RACER_ENABLED
  racer::on_reduction("test.red.snap", 1, 0xA);
  racer::on_reduction("test.red.snap", 2, 0xB1);
  const racer::ReductionSnapshot one_thread = racer::reduction_snapshot();
  racer::reset();
  racer::on_reduction("test.red.snap", 1, 0xA);
  racer::on_reduction("test.red.snap", 2, 0xB2);
  const racer::ReductionSnapshot four_threads = racer::reduction_snapshot();
  racer::reset();

  EXPECT_EQ(racer::compare_reduction_snapshots(one_thread, four_threads,
                                               "threads=1", "threads=4"),
            1);
  const auto f = first_finding(racer::ReportKind::kOrderNondeterminism);
  ASSERT_TRUE(f.has_value()) << racer::format_report();
  EXPECT_TRUE(f->is_error);
  EXPECT_EQ(f->object, "test.red.snap");
  EXPECT_NE(f->message.find("threads=1"), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("threads=4"), std::string::npos) << f->message;
  EXPECT_NE(f->details.find("first divergence: key 2"), std::string::npos)
      << f->details;
  EXPECT_FALSE(racer::clean());
#endif
}

// Identical contributions arriving in a different order: a warning only
// (benign for commutative merges), and clean() stays true.
TEST_F(RacerTest, OrderOnlyDigestDifferenceIsAWarningNotAnError) {
#if SCIDOCK_RACER_ENABLED
  racer::on_reduction("test.red.order", 1, 0xA);
  racer::on_reduction("test.red.order", 2, 0xB);
  const racer::ReductionSnapshot forward = racer::reduction_snapshot();
  racer::reset();
  racer::on_reduction("test.red.order", 2, 0xB);
  racer::on_reduction("test.red.order", 1, 0xA);
  const racer::ReductionSnapshot reversed = racer::reduction_snapshot();
  racer::reset();

  EXPECT_EQ(racer::compare_reduction_snapshots(forward, reversed, "fwd",
                                               "rev"),
            0);
  const auto f = first_finding(racer::ReportKind::kOrderNondeterminism);
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(f->is_error);
  EXPECT_NE(f->message.find("different order"), std::string::npos)
      << f->message;
  EXPECT_TRUE(racer::clean());
  EXPECT_EQ(racer::counters().findings_warning, 1);
#endif
}

#if SCIDOCK_RACER_ENABLED

/// One planted race run under the chaos schedule-perturbation profile:
/// two pool tasks, rendezvoused through an uninstrumented seq_cst
/// barrier + ticket so the racing accesses are really ordered (TSan has
/// nothing to say) and always land in the same order regardless of the
/// chaos jitter — the *report* must therefore be identical run to run.
std::vector<std::string> run_planted_under_chaos(std::uint64_t seed,
                                                 long long* delays) {
  racer::reset();
  {
    chaos::ChaosEngine engine(chaos::chaos_profile_racer(), seed);
    ThreadPool pool(2);
    pool.set_task_hook(engine.pool_hook());
    racer::Cell<int> cell{0, "test.chaos.cell"};
    std::atomic<int> started{0};
    std::atomic<int> ticket{0};
    auto first = pool.submit([&] {
      started.fetch_add(1);
      while (started.load() < 2) std::this_thread::yield();
      cell.write(1);
      ticket.store(1);
    });
    auto second = pool.submit([&] {
      started.fetch_add(1);
      while (started.load() < 2) std::this_thread::yield();
      while (ticket.load() != 1) std::this_thread::yield();
      cell.write(2);
    });
    first.get();
    second.get();
    *delays = engine.pool_delays_injected();
  }
  std::vector<std::string> lines;
  for (const racer::Finding& f : racer::findings()) {
    // Slot numbers depend on which worker thread registered first, so
    // compare the schedule-independent face of the report: rule,
    // message (object + both sites) and the two site fields.
    lines.push_back(std::string(racer::rule_id(f.kind)) + " " + f.message +
                    " [" + std::to_string(f.prior_line) + "->" +
                    std::to_string(f.line) + "]");
  }
  racer::reset();
  return lines;
}

#endif  // SCIDOCK_RACER_ENABLED

// ISSUE acceptance: under a fixed chaos seed the report is deterministic
// — same findings, same sites, run after run — so a CI failure replays
// exactly.
TEST_F(RacerTest, ReportIsDeterministicUnderFixedChaosSeed) {
#if SCIDOCK_RACER_ENABLED
  long long delays1 = 0;
  long long delays2 = 0;
  const std::vector<std::string> run1 = run_planted_under_chaos(42, &delays1);
  const std::vector<std::string> run2 = run_planted_under_chaos(42, &delays2);
  // Chaos actually perturbed the schedule (every task start is jittered).
  EXPECT_GE(delays1, 2);
  EXPECT_EQ(delays1, delays2);
  // The barrier keeps both tasks unordered; the ticket fixes which write
  // is prior. Exactly one RC001, identical both runs.
  ASSERT_EQ(run1.size(), 1u) << racer::format_report();
  EXPECT_EQ(run1[0].substr(0, 5), "RC001");
  EXPECT_NE(run1[0].find("test.chaos.cell"), std::string::npos) << run1[0];
  EXPECT_EQ(run1, run2);
#endif
}

// The product-level RC004 wiring (ISSUE acceptance): a real screen's
// reductions — the campaign FEB/score accumulation and the AutoGrid
// slab merge — must be keyed identically at 1 thread and N threads.
// A divergence would name the culprit reduction and key; arrival-order
// differences alone are tolerated (warning only).
TEST_F(RacerTest, DockingReductionsAreThreadCountInvariant) {
#if SCIDOCK_RACER_ENABLED
  const std::vector<std::string> all_receptors = data::table2_receptors();
  const std::vector<std::string> all_ligands = data::table2_ligands();
  ASSERT_GE(all_receptors.size(), 2u);
  ASSERT_GE(all_ligands.size(), 3u);
  const std::vector<std::string> receptors(all_receptors.begin(),
                                           all_receptors.begin() + 2);
  const std::vector<std::string> ligands(all_ligands.begin(),
                                         all_ligands.begin() + 3);

  auto run_at = [&](int threads) {
    racer::reset();
    std::size_t rows = 0;
    {
      core::Experiment exp = core::make_experiment(receptors, ligands, 0);
      rows = core::run_native(exp, threads).output.size();
      // scope close: the prov store joins its flusher before the snapshot
    }
    EXPECT_TRUE(racer::clean()) << racer::format_report();
    return std::pair{rows, racer::reduction_snapshot()};
  };
  const auto [rows1, one_thread] = run_at(1);
  const auto [rows3, threaded] = run_at(3);
  racer::reset();

  EXPECT_EQ(rows1, rows3);
  EXPECT_GT(rows1, 0u);
  ASSERT_TRUE(one_thread.count("dock.score.feb"));
  ASSERT_TRUE(one_thread.count("dock.autogrid.slab_merge"));
  EXPECT_EQ(racer::compare_reduction_snapshots(one_thread, threaded,
                                               "threads=1", "threads=3"),
            0)
      << racer::format_report();
  EXPECT_TRUE(racer::clean()) << racer::format_report();
#endif
}

// Runtime kill-switch: with checks disabled (a bench_sync_analysis arm)
// the same shapes record nothing at all.
TEST_F(RacerTest, KillSwitchSuppressesAllBookkeeping) {
#if SCIDOCK_RACER_ENABLED
  racer::set_enabled(false);
  int victim = 0;
  SCIDOCK_RACER_TRACK(victim, "test.kill.victim");
  std::thread t([&] {
    SCIDOCK_RACER_WRITE(victim);
    victim = 1;
  });
  t.join();
  SCIDOCK_RACER_WRITE(victim);
  victim = 2;
  EXPECT_TRUE(racer::findings().empty());
  EXPECT_EQ(racer::counters().writes, 0);
  EXPECT_EQ(racer::counters().cells, 0);
  racer::set_enabled(true);
#endif
}

TEST_F(RacerTest, ResetClearsFindingsAndShadowState) {
#if SCIDOCK_RACER_ENABLED
  racer::Cell<int> obj{1, "test.reset.obj"};
  std::thread t([&] { (void)obj.read(); });
  t.join();
  ASSERT_FALSE(racer::clean());  // RC003 planted
  racer::reset();
  EXPECT_TRUE(racer::clean());
  EXPECT_TRUE(racer::findings().empty());
  EXPECT_EQ(racer::counters().reads, 0);
  EXPECT_EQ(racer::counters().cells, 0);
  // The once-raced object starts from a fresh baseline after reset.
  obj.write(2);
  EXPECT_TRUE(racer::clean()) << racer::format_report();
#endif
}

// ---- bridges ----

TEST_F(RacerTest, PublishMetricsExportsAllSeries) {
#if SCIDOCK_RACER_ENABLED
  racer::Cell<int> cell{0, "test.metrics.cell"};
  cell.write(1);
  (void)cell.read();
  racer::on_reduction("test.metrics.red", 1, 0x1);
  obs::MetricsRegistry registry;
  obs::publish_sync_metrics(registry);
  EXPECT_GT(registry.gauge_value(obs::kRacerThreads), 0.0);
  EXPECT_GT(registry.gauge_value(obs::kRacerTrackedCells), 0.0);
  EXPECT_GE(registry.counter_value(obs::kRacerWrites), 1);
  EXPECT_GE(registry.counter_value(obs::kRacerReductionRecords), 1);
  EXPECT_EQ(registry.counter_value(obs::kRacerFindingsError), 0);

  // Counters are delta-published: re-publishing tracks the global value,
  // never doubles it, and never runs ahead of it.
  const long long after_first = registry.counter_value(obs::kRacerWrites);
  cell.write(2);
  obs::publish_sync_metrics(registry);
  const long long after_second = registry.counter_value(obs::kRacerWrites);
  EXPECT_GE(after_second, after_first + 1);
  EXPECT_LE(after_second, racer::counters().writes);

  const std::string text = registry.to_prometheus_text();
  for (const std::string_view name :
       {obs::kRacerThreads, obs::kRacerSyncObjects, obs::kRacerTrackedCells,
        obs::kRacerReads, obs::kRacerWrites, obs::kRacerMutexEdges,
        obs::kRacerTaskEdges, obs::kRacerHbEdges,
        obs::kRacerReductionRecords, obs::kRacerFindingsError,
        obs::kRacerFindingsWarning}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
#endif
}

TEST_F(RacerTest, InvariantCheckerFlagsErrorsAndToleratesWarnings) {
#if SCIDOCK_RACER_ENABLED
  {
    chaos::InvariantChecker checker;
    EXPECT_TRUE(checker.check_sync());
  }

  // An order-digest warning alone keeps the invariant green.
  racer::on_reduction("test.inv.red", 1, 0xA);
  racer::on_reduction("test.inv.red", 2, 0xB);
  const racer::ReductionSnapshot forward = racer::reduction_snapshot();
  racer::reset();
  racer::on_reduction("test.inv.red", 2, 0xB);
  racer::on_reduction("test.inv.red", 1, 0xA);
  const racer::ReductionSnapshot reversed = racer::reduction_snapshot();
  racer::compare_reduction_snapshots(forward, reversed, "a", "b");
  {
    chaos::InvariantChecker checker;
    EXPECT_TRUE(checker.check_sync()) << checker.to_string();
  }

  // A planted publish breaks it, and the violation names the rule.
  racer::Cell<int> obj{1, "test.inv.obj"};
  std::thread t([&] { (void)obj.read(); });
  t.join();
  chaos::InvariantChecker checker;
  EXPECT_FALSE(checker.check_sync());
  EXPECT_FALSE(checker.ok());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.to_string().find("RC003"), std::string::npos)
      << checker.to_string();
#endif
}

TEST_F(RacerTest, LintBridgeMapsFindingsToDiagnostics) {
#if SCIDOCK_RACER_ENABLED
  EXPECT_TRUE(lint::sync_report().clean());

  racer::Cell<int> counter{0, "test.lint.counter"};
  racer::TaskEdge edge = racer::on_task_spawn();
  std::thread t([&] {
    racer::TaskRun run(edge);
    counter.write(1);
  });
  t.join();
  counter.write(2);  // RC001, no join edge
  racer::on_reduction("test.lint.red", 1, 0xA);
  racer::on_reduction("test.lint.red", 1, 0xB);  // RC004

  const lint::Report report = lint::sync_report();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.has("RC001"));
  EXPECT_TRUE(report.has("RC004"));
  EXPECT_EQ(report.error_count(), 2u);
  // Formatted diagnostics point at this file for the race.
  EXPECT_NE(report.format().find("racer_test.cpp"), std::string::npos)
      << report.format();
#endif
}

}  // namespace
}  // namespace scidock
