// Differential chaos sweep (ctest label: chaos): seed-deterministic fault
// injection through both executors and both scheduler policies, with every
// run validated by the InvariantChecker — conservation under the attempt
// budget, provenance/report consistency, and byte-identical same-seed
// replay. A negative control (re-execution disabled) proves the checker
// detects a broken fault-tolerance contract.
//
// Reproducing a failing CI seed: every assertion message carries the
// (seed, profile, policy/threads) triple; rebuild and run
//   ./scidock_chaos_tests --gtest_filter='ChaosSweep.*'
// after hard-coding that seed in the sweep bounds (see DESIGN.md).

#include <gtest/gtest.h>

#include "chaos/chaos.hpp"
#include "chaos/invariants.hpp"
#include "cloud/cost_model.hpp"
#include "prov/prov.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "vfs/vfs.hpp"
#include "wf/native_executor.hpp"
#include "wf/pipeline.hpp"
#include "wf/sim_executor.hpp"

namespace scidock::chaos {
namespace {

using wf::ActivationContext;
using wf::AlgebraicOp;
using wf::Pipeline;
using wf::Relation;
using wf::Stage;
using wf::Tuple;

constexpr int kSweepSeeds = 50;
constexpr int kAttemptBudget = 6;

Relation chaos_input(int n, int hazards = 0) {
  Relation rel{{"pair", "id", "hg"}};
  for (int i = 0; i < n; ++i) {
    Tuple t;
    t.set("pair", "pair-" + std::to_string(i));
    t.set("id", std::to_string(i));
    t.set("hg", i < hazards ? "1" : "0");
    rel.add(std::move(t));
  }
  return rel;
}

/// Two Map stages that really touch the shared filesystem under /chaos/,
/// so VFS fault injection lands inside the activation retry loop.
Pipeline chaos_pipeline() {
  Pipeline p;
  p.add_stage(Stage{
      "produce", AlgebraicOp::Map,
      [](const Tuple& in, ActivationContext& ctx) {
        const std::string& id = in.require("id");
        ctx.fs->write("/chaos/" + id + ".a", "a:" + id, ctx.now, "produce");
        Tuple out = in;
        out.set("a", std::to_string(3 * std::stoi(id)));
        return std::vector<Tuple>{out};
      },
      nullptr, nullptr, nullptr});
  p.add_stage(Stage{
      "consume", AlgebraicOp::Map,
      [](const Tuple& in, ActivationContext& ctx) {
        const std::string& id = in.require("id");
        const std::string staged = ctx.fs->read("/chaos/" + id + ".a");
        ctx.fs->write("/chaos/" + id + ".b", staged + "|b", ctx.now, "consume");
        Tuple out = in;
        out.set("b", in.require("a") + "!");
        return std::vector<Tuple>{out};
      },
      nullptr, nullptr, nullptr});
  return p;
}

cloud::CostModel chaos_cost_model() {
  cloud::CostModel model;
  model.set_cost({"produce", 12.0, 0.4, 0.5});
  model.set_cost({"consume", 6.0, 0.4, 0.5});
  return model;
}

ChaosProfile profile_for(int seed) {
  return seed % 2 == 0 ? chaos_profile_light() : chaos_profile_heavy();
}

// ------------------------------------------------------------ sim sweep

wf::SimExecutorOptions sim_options(const ChaosEngine& engine,
                                   const std::string& policy,
                                   std::uint64_t seed) {
  wf::SimExecutorOptions opts;
  opts.fleet = wf::m3_fleet_for_cores(8);
  opts.scheduler_policy = policy;
  opts.failure = engine.failure_options(kAttemptBudget, /*hang_timeout_s=*/300.0);
  opts.seed = seed;
  return opts;
}

TEST(ChaosSweep, SimulatedExecutorHoldsInvariants) {
  const Pipeline p = chaos_pipeline();
  const cloud::CostModel model = chaos_cost_model();
  const Relation input = chaos_input(30);
  long long faults_seen = 0;
  for (int seed = 0; seed < kSweepSeeds; ++seed) {
    for (const std::string policy : {"greedy-cost", "fifo"}) {
      const ChaosEngine engine(profile_for(seed), static_cast<std::uint64_t>(seed));
      const wf::SimExecutorOptions opts =
          sim_options(engine, policy, static_cast<std::uint64_t>(seed));
      const std::string tag = "chaos-sim";

      prov::ProvenanceStore store_a, store_b;
      const wf::SimReport a =
          wf::SimulatedExecutor(p, model, opts).run(input, &store_a, tag);
      const wf::SimReport b =
          wf::SimulatedExecutor(p, model, opts).run(input, &store_b, tag);

      const RunSummary sa = summarize(a, opts, input.size());
      const RunSummary sb = summarize(b, opts, input.size());
      InvariantChecker checker;
      checker.check_conservation(sa);
      checker.check_provenance(sa, store_a, tag, /*chain_length=*/2);
      checker.check_replay(sa, sb);
      checker.check_sync();
      ASSERT_TRUE(checker.ok())
          << "seed=" << seed << " profile=" << engine.profile().name
          << " policy=" << policy << "\n" << checker.to_string();
      faults_seen += a.activations_failed + a.activations_hung;
    }
  }
  // The sweep is only meaningful if chaos actually fired.
  EXPECT_GT(faults_seen, 100);
}

// --------------------------------------------------------- native sweep

TEST(ChaosSweep, NativeExecutorHoldsInvariants) {
  const Pipeline p = chaos_pipeline();
  const Relation input = chaos_input(10);
  long long faults_seen = 0;
  for (int seed = 0; seed < kSweepSeeds; ++seed) {
    ChaosProfile profile = profile_for(seed);
    profile.vfs.path_substring = "/chaos/";
    profile.pool.exception_probability = 0.0;  // delays only: a pool
    // exception aborts the whole run instead of one activation, which is
    // exercised separately below.
    const std::string tag = "chaos-native";
    const int threads = 1 + seed % 4;

    auto run_once = [&](prov::ProvenanceStore& store,
                        const ChaosEngine& engine) {
      vfs::SharedFileSystem fs;
      fs.set_fault_hook(engine.vfs_hook());
      wf::NativeExecutorOptions opts;
      opts.threads = threads;
      opts.max_attempts = kAttemptBudget;
      opts.seed = static_cast<std::uint64_t>(seed);
      opts.fault_injector = engine.activity_fault_injector();
      opts.pool_task_hook = engine.pool_hook();
      wf::NativeExecutor exec(p, fs, store, opts);
      return std::pair{exec.run(input, tag), opts};
    };

    // A fresh engine per run: transient-fault bookkeeping starts over, so
    // the same seed must reproduce the same injected faults.
    prov::ProvenanceStore store_a, store_b;
    const ChaosEngine engine_a(profile, static_cast<std::uint64_t>(seed));
    const ChaosEngine engine_b(profile, static_cast<std::uint64_t>(seed));
    const auto [a, opts_a] = run_once(store_a, engine_a);
    const auto [b, opts_b] = run_once(store_b, engine_b);

    const RunSummary sa = summarize(a, opts_a, input.size());
    const RunSummary sb = summarize(b, opts_b, input.size());
    InvariantChecker checker;
    checker.check_conservation(sa);
    checker.check_provenance(sa, store_a, tag, /*chain_length=*/2);
    checker.check_replay(sa, sb);
    checker.check_sync();
    ASSERT_TRUE(checker.ok())
        << "seed=" << seed << " profile=" << profile.name
        << " threads=" << threads << "\n" << checker.to_string();
    faults_seen += a.activations_failed + a.activations_hung;
    EXPECT_EQ(engine_a.vfs_faults_injected(), engine_b.vfs_faults_injected())
        << "seed=" << seed;
  }
  EXPECT_GT(faults_seen, 50);
}

// ------------------------------------------------------ negative controls

TEST(ChaosNegativeControl, DisabledReexecutionIsFlagged) {
  const Pipeline p = chaos_pipeline();
  const ChaosEngine engine(chaos_profile_heavy(), 7);
  wf::SimExecutorOptions opts = sim_options(engine, "greedy-cost", 7);
  opts.reexecute_failures = false;  // deliberately break the contract
  prov::ProvenanceStore store;
  const wf::SimReport report = wf::SimulatedExecutor(p, chaos_cost_model(), opts)
                                   .run(chaos_input(40), &store, "broken");
  ASSERT_GT(report.tuples_lost, 0);
  const RunSummary s = summarize(report, opts, 40);
  InvariantChecker checker;
  EXPECT_FALSE(checker.check_conservation(s));
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations()[0].find("headroom"), std::string::npos);
}

TEST(ChaosNegativeControl, TamperedProvenanceIsFlagged) {
  const Pipeline p = chaos_pipeline();
  const ChaosEngine engine(chaos_profile_light(), 11);
  const wf::SimExecutorOptions opts = sim_options(engine, "greedy-cost", 11);
  prov::ProvenanceStore store;
  const wf::SimReport report = wf::SimulatedExecutor(p, chaos_cost_model(), opts)
                                   .run(chaos_input(20), &store, "tamper");
  const RunSummary s = summarize(report, opts, 20);
  InvariantChecker before;
  ASSERT_TRUE(before.check_provenance(s, store, "tamper", 2))
      << before.to_string();
  // Drop one FINISHED record: report counters no longer match the store.
  bool dropped = false;
  store.with_database([&](sql::Database& db) {
    sql::Table& t = db.table("hactivation");
    const auto c_status = static_cast<std::size_t>(t.column_index("status"));
    t.erase_if([&](const sql::Row& row) {
      if (dropped || row[c_status].as_string() != prov::kStatusFinished) {
        return false;
      }
      dropped = true;
      return true;
    });
  });
  ASSERT_TRUE(dropped);
  InvariantChecker after;
  EXPECT_FALSE(after.check_provenance(s, store, "tamper", 2));
}

// --------------------------------------------- seed-determinism regression

TEST(SeedDeterminism, IdenticalSimSeedsReproduceExactly) {
  const Pipeline p = chaos_pipeline();
  const ChaosEngine engine(chaos_profile_light(), 21);
  const wf::SimExecutorOptions opts = sim_options(engine, "greedy-cost", 21);
  const Relation input = chaos_input(25);
  const wf::SimReport a =
      wf::SimulatedExecutor(p, chaos_cost_model(), opts).run(input);
  const wf::SimReport b =
      wf::SimulatedExecutor(p, chaos_cost_model(), opts).run(input);
  EXPECT_DOUBLE_EQ(a.total_execution_time_s, b.total_execution_time_s);
  EXPECT_EQ(a.activations_finished, b.activations_finished);
  EXPECT_EQ(a.activations_failed, b.activations_failed);
  EXPECT_EQ(a.activations_hung, b.activations_hung);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].tag, b.records[i].tag) << i;
    EXPECT_EQ(a.records[i].tuple_index, b.records[i].tuple_index) << i;
    EXPECT_DOUBLE_EQ(a.records[i].start, b.records[i].start) << i;
    EXPECT_DOUBLE_EQ(a.records[i].end, b.records[i].end) << i;
    EXPECT_EQ(a.records[i].attempt, b.records[i].attempt) << i;
    EXPECT_EQ(a.records[i].status, b.records[i].status) << i;
  }
}

TEST(SeedDeterminism, DifferentSeedsDiverge) {
  const Pipeline p = chaos_pipeline();
  const Relation input = chaos_input(25);
  const ChaosEngine engine(chaos_profile_light(), 1);
  wf::SimExecutorOptions o1 = sim_options(engine, "greedy-cost", 1);
  wf::SimExecutorOptions o2 = sim_options(engine, "greedy-cost", 2);
  const wf::SimReport a =
      wf::SimulatedExecutor(p, chaos_cost_model(), o1).run(input);
  const wf::SimReport b =
      wf::SimulatedExecutor(p, chaos_cost_model(), o2).run(input);
  EXPECT_NE(summarize(a, o1, input.size()).digest,
            summarize(b, o2, input.size()).digest);
}

// ------------------------------------------------- hazards stay accounted

TEST(ChaosHazards, PreabortedHazardsAreExpectedLosses) {
  Pipeline p;
  p.add_stage(Stage{"produce", AlgebraicOp::Map, nullptr, nullptr, nullptr,
                    [](const Tuple& t) { return t.require("hg") == "1"; }});
  p.add_stage(Stage{"consume", AlgebraicOp::Map, nullptr, nullptr, nullptr,
                    nullptr});
  const ChaosEngine engine(chaos_profile_off(), 3);
  wf::SimExecutorOptions opts = sim_options(engine, "greedy-cost", 3);
  prov::ProvenanceStore store;
  const Relation input = chaos_input(20, /*hazards=*/2);
  const wf::SimReport report = wf::SimulatedExecutor(p, chaos_cost_model(), opts)
                                   .run(input, &store, "hazard");
  EXPECT_EQ(report.tuples_lost, 2);  // the two Hg tuples, pre-aborted
  RunSummary s = summarize(report, opts, input.size());
  InvariantChecker strict;
  EXPECT_FALSE(strict.check_conservation(s));  // losses look premature ...
  s.expected_hazard_losses = 2;                // ... until declared expected
  InvariantChecker informed;
  EXPECT_TRUE(informed.check_conservation(s)) << informed.to_string();
  EXPECT_TRUE(informed.check_provenance(s, store, "hazard", 2))
      << informed.to_string();
}

// -------------------------------------------------- chaos engine plumbing

TEST(ChaosEngine, ActivityVerdictsArePureAndSeedDependent) {
  const ChaosEngine a(chaos_profile_heavy(), 5);
  const ChaosEngine b(chaos_profile_heavy(), 5);
  const ChaosEngine c(chaos_profile_heavy(), 6);
  const auto fa = a.activity_fault_injector();
  const auto fb = b.activity_fault_injector();
  const auto fc = c.activity_fault_injector();
  Tuple t;
  t.set("pair", "pair-0");
  int diverged = 0;
  for (int attempt = 1; attempt <= 40; ++attempt) {
    EXPECT_EQ(static_cast<int>(fa("produce", t, attempt)),
              static_cast<int>(fb("produce", t, attempt)));
    if (fa("produce", t, attempt) != fc("produce", t, attempt)) ++diverged;
  }
  EXPECT_GT(diverged, 0);  // a different seed injects different faults
}

TEST(ChaosEngine, VfsTransientFaultsRecover) {
  ChaosProfile profile = chaos_profile_off();
  profile.vfs.read_fault_probability = 1.0;  // every path drawn faulty
  profile.vfs.max_transient_failures = 1;
  const ChaosEngine engine(profile, 9);
  vfs::SharedFileSystem fs;
  fs.set_fault_hook(engine.vfs_hook());
  fs.write("/x/data.txt", "payload");
  EXPECT_THROW(fs.read("/x/data.txt"), ActivityError);   // transient fault
  EXPECT_EQ(fs.read("/x/data.txt"), "payload");          // recovered
  EXPECT_EQ(engine.vfs_faults_injected(), 1);
}

TEST(ChaosEngine, PoolExceptionInjectionSurfacesThroughFutures) {
  ChaosProfile profile = chaos_profile_off();
  profile.pool.exception_probability = 1.0;
  const ChaosEngine engine(profile, 13);
  ThreadPool pool(2);
  pool.set_task_hook(engine.pool_hook());
  EXPECT_THROW(pool.parallel_for(4, [](std::size_t) {}), ChaosInjectedError);
  EXPECT_GT(engine.pool_exceptions_injected(), 0);
}

TEST(ChaosEngine, OffProfileInstallsNoHooks) {
  const ChaosEngine engine(chaos_profile_off(), 1);
  EXPECT_EQ(engine.vfs_hook(), nullptr);
  EXPECT_EQ(engine.pool_hook(), nullptr);
  EXPECT_EQ(engine.activity_fault_injector(), nullptr);
}

}  // namespace
}  // namespace scidock::chaos
