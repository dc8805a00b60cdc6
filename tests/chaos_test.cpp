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

/// Simulation-only two-stage chain whose first stage pre-aborts the
/// tuples flagged hg = 1 (the Hg-receptor case).
Pipeline hazard_pipeline() {
  Pipeline p;
  p.add_stage(Stage{"produce", AlgebraicOp::Map, nullptr, nullptr, nullptr,
                    [](const Tuple& t) { return t.require("hg") == "1"; }});
  p.add_stage(Stage{"consume", AlgebraicOp::Map, nullptr, nullptr, nullptr,
                    nullptr});
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
  const sql::ResultSet victim = store.query(
      "SELECT taskid FROM hactivation WHERE status = 'FINISHED' "
      "ORDER BY taskid LIMIT 1");
  ASSERT_EQ(victim.rows.size(), 1u);
  const sql::ResultSet dropped = store.query(
      "DELETE FROM hactivation WHERE taskid = " + victim.rows[0][0].to_string());
  ASSERT_EQ(dropped.rows[0][0].as_int(), 1);
  InvariantChecker after;
  EXPECT_FALSE(after.check_provenance(s, store, "tamper", 2));
}

// ------------------------------- one negative control per provenance rule

/// A clean one-shard run with at least one retried tuple-activity site,
/// and the taskids of that site's attempts 1 and 2 (FINISHED).
struct RetriedSite {
  long long first = 0;
  long long second = 0;
};

/// One planted fault: `plant` edits the store through the engine, and a
/// violation must then carry `rule`.
struct ProvenanceTamper {
  const char* name;
  const char* rule;
  void (*plant)(prov::ProvenanceStore& store, const RetriedSite& site);
};

void exec(prov::ProvenanceStore& store, const std::string& sql) {
  store.query(sql);
}

const ProvenanceTamper kProvenanceTampers[] = {
    {"open_activation", "left open",
     [](prov::ProvenanceStore& s, const RetriedSite& site) {
       exec(s, "UPDATE hactivation SET status = 'RUNNING', endtime = NULL "
               "WHERE taskid = " + std::to_string(site.second));
     }},
    {"open_workflow", "never closed",
     [](prov::ProvenanceStore& s, const RetriedSite&) {
       exec(s, "UPDATE hworkflow SET endtime = NULL");
     }},
    {"ends_after_workflow", "after workflow end",
     [](prov::ProvenanceStore& s, const RetriedSite& site) {
       exec(s, "UPDATE hactivation SET endtime = endtime + 1000000 "
               "WHERE taskid = " + std::to_string(site.second));
     }},
    {"non_consecutive_attempts", "not consecutive",
     [](prov::ProvenanceStore& s, const RetriedSite& site) {
       exec(s, "UPDATE hactivation SET attempts = 3 WHERE taskid = " +
                   std::to_string(site.second));
     }},
    {"finished_not_last", "FINISHED attempt",
     [](prov::ProvenanceStore& s, const RetriedSite& site) {
       // Swap the statuses: attempt 1 FINISHED, attempt 2 FAILED.
       exec(s, "UPDATE hactivation SET status = 'FINISHED' WHERE taskid = " +
                   std::to_string(site.first));
       exec(s, "UPDATE hactivation SET status = 'FAILED' WHERE taskid = " +
                   std::to_string(site.second));
     }},
    {"attempt_overlaps_previous", "before attempt 1 ended",
     [](prov::ProvenanceStore& s, const RetriedSite& site) {
       exec(s, "UPDATE hactivation SET starttime = starttime - 1000 "
               "WHERE taskid = " + std::to_string(site.second));
     }},
    {"attempts_over_budget", "exceeds budget",
     [](prov::ProvenanceStore& s, const RetriedSite& site) {
       exec(s, "UPDATE hactivation SET attempts = " +
                   std::to_string(kAttemptBudget + 1) +
                   " WHERE taskid = " + std::to_string(site.second));
     }},
};

void PrintTo(const ProvenanceTamper& tamper, std::ostream* os) { *os << tamper.name; }

class ProvenanceNegativeControl
    : public ::testing::TestWithParam<ProvenanceTamper> {};

TEST_P(ProvenanceNegativeControl, PlantedFaultIsFlagged) {
  const ChaosEngine engine(chaos_profile_heavy(), 11);
  const wf::SimExecutorOptions opts = sim_options(engine, "greedy-cost", 11);
  prov::ProvenanceStore store;
  const wf::SimReport report = wf::SimulatedExecutor(chaos_pipeline(),
                                                     chaos_cost_model(), opts)
                                   .run(chaos_input(20), &store, "tamper");
  const RunSummary s = summarize(report, opts, 20);
  InvariantChecker before;
  ASSERT_TRUE(before.check_provenance(s, store, "tamper", 2))
      << before.to_string();

  RetriedSite site;
  const sql::ResultSet retried = store.query(
      "SELECT taskid, actid, workload FROM hactivation "
      "WHERE status = 'FINISHED' AND attempts = 2 ORDER BY taskid LIMIT 1");
  ASSERT_EQ(retried.rows.size(), 1u) << "the run needs a retried site";
  site.second = retried.rows[0][0].as_int();
  const sql::ResultSet first = store.query(
      "SELECT taskid FROM hactivation WHERE attempts = 1 AND actid = " +
      retried.rows[0][1].to_string() + " AND workload = '" +
      retried.rows[0][2].as_string() + "'");
  ASSERT_EQ(first.rows.size(), 1u);
  site.first = first.rows[0][0].as_int();

  GetParam().plant(store, site);
  InvariantChecker after;
  EXPECT_FALSE(after.check_provenance(s, store, "tamper", 2));
  const std::string all = after.to_string();
  EXPECT_NE(all.find(GetParam().rule), std::string::npos) << all;
}

INSTANTIATE_TEST_SUITE_P(
    EveryRule, ProvenanceNegativeControl,
    ::testing::ValuesIn(kProvenanceTampers),
    [](const ::testing::TestParamInfo<ProvenanceTamper>& param_info) {
      return std::string(param_info.param.name);
    });

// ------------------------------------------ four shards read like one

/// Every check's verdict and violation list for one run recorded into a
/// durable store of `shards` shards: on the live store, and on a reopen of
/// its write-ahead log.
std::vector<std::string> check_at(std::size_t shards, bool hazards) {
  // The hazard run is the ChaosHazards one: chaos off, two Hg tuples.
  const Pipeline p = hazards ? hazard_pipeline() : chaos_pipeline();
  const ChaosEngine engine(hazards ? chaos_profile_off() : chaos_profile_heavy(),
                           3);
  const wf::SimExecutorOptions opts = sim_options(engine, "greedy-cost", 3);
  const Relation input = chaos_input(20, hazards ? 2 : 0);
  vfs::SharedFileSystem fs;
  prov::ProvenanceStoreOptions options;
  options.shard_count = shards;
  options.vfs = &fs;
  std::vector<std::string> out;
  const auto record = [&out](const char* what, InvariantChecker& checker,
                             bool ok) {
    out.push_back(std::string(what) + (ok ? " ok" : " FAILED"));
    for (const std::string& v : checker.violations()) out.push_back(v);
  };
  RunSummary s;
  {
    prov::ProvenanceStore store(options);
    const wf::SimReport report =
        wf::SimulatedExecutor(p, chaos_cost_model(), opts).run(input, &store, "shards");
    s = summarize(report, opts, input.size());
    store.flush();
    InvariantChecker live;
    record("live provenance", live, live.check_provenance(s, store, "shards", 2));
    // A budget the run exceeded: the same violations at every shard count.
    RunSummary tight = s;
    tight.attempt_budget = 1;
    InvariantChecker budget;
    record("tight budget", budget,
           budget.check_provenance(tight, store, "shards", 2));
    InvariantChecker recovery;
    record("live recovery", recovery, recovery.check_recovery(store));
  }
  prov::ProvenanceStore reopened(options);
  InvariantChecker recovery;
  record("reopened recovery", recovery, recovery.check_recovery(reopened));
  InvariantChecker provenance;
  record("reopened provenance", provenance,
         provenance.check_provenance(s, reopened, "shards", 2));
  return out;
}

TEST(ChaosShards, FourShardsGiveTheOneShardVerdicts) {
  for (const bool hazards : {false, true}) {
    SCOPED_TRACE(hazards ? "hazards" : "chaos");
    const std::vector<std::string> one = check_at(1, hazards);
    EXPECT_EQ(check_at(4, hazards), one);
    // Clean runs pass; only the understated budget is flagged.
    EXPECT_EQ(one.front(), "live provenance ok");
    EXPECT_EQ(one.back(), "reopened provenance ok");
  }
}

// --------------------------------------------- seed-determinism regression

TEST(SeedDeterminism, IdenticalSimSeedsReproduceExactly) {
  const Pipeline p = chaos_pipeline();
  const ChaosEngine engine(chaos_profile_light(), 21);
  const wf::SimExecutorOptions opts = sim_options(engine, "greedy-cost", 21);
  const Relation input = chaos_input(25);
  prov::ProvenanceStore store_a, store_b;
  const wf::SimReport a = wf::SimulatedExecutor(p, chaos_cost_model(), opts)
                              .run(input, &store_a, "seed");
  const wf::SimReport b = wf::SimulatedExecutor(p, chaos_cost_model(), opts)
                              .run(input, &store_b, "seed");
  EXPECT_DOUBLE_EQ(a.total_execution_time_s, b.total_execution_time_s);
  EXPECT_EQ(a.activations_finished, b.activations_finished);
  EXPECT_EQ(a.activations_failed, b.activations_failed);
  EXPECT_EQ(a.activations_hung, b.activations_hung);
  // Every attempt, with its simulated timestamps, lands in the store
  // identically.
  const char* const attempts = "SELECT count(*) FROM hactivation";
  EXPECT_EQ(store_a.query(attempts).rows[0][0].as_int(),
            a.activations_finished + a.activations_failed + a.activations_hung);
  EXPECT_EQ(store_a.content_digest(), store_b.content_digest());
}

TEST(SeedDeterminism, TamperedStoreBreaksReplay) {
  // The sim digest covers the store the run recorded into: one moved
  // endtime must break a same-seed replay that the report alone passes.
  const Pipeline p = chaos_pipeline();
  const ChaosEngine engine(chaos_profile_light(), 21);
  const wf::SimExecutorOptions opts = sim_options(engine, "greedy-cost", 21);
  const Relation input = chaos_input(25);
  prov::ProvenanceStore store_a, store_b;
  const wf::SimReport a = wf::SimulatedExecutor(p, chaos_cost_model(), opts)
                              .run(input, &store_a, "replay");
  const wf::SimReport b = wf::SimulatedExecutor(p, chaos_cost_model(), opts)
                              .run(input, &store_b, "replay");
  const auto replays = [&] {
    InvariantChecker checker;
    return checker.check_replay(summarize(a, opts, input.size(), &store_a),
                                summarize(b, opts, input.size(), &store_b));
  };
  ASSERT_TRUE(replays());
  const sql::ResultSet victim =
      store_b.query("SELECT min(taskid) FROM hactivation");
  const sql::ResultSet moved = store_b.query(
      "UPDATE hactivation SET endtime = endtime + 1 WHERE taskid = " +
      victim.rows[0][0].to_string());
  ASSERT_EQ(moved.rows[0][0].as_int(), 1);
  EXPECT_FALSE(replays());
  EXPECT_EQ(summarize(a, opts, input.size()).digest,
            summarize(b, opts, input.size()).digest);
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
  const Pipeline p = hazard_pipeline();
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
