// Tests for the two executors over small synthetic pipelines: fault
// tolerance, parallelism, elasticity, provenance capture.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "chaos/invariants.hpp"
#include "prov/prov.hpp"
#include "util/error.hpp"
#include "wf/native_executor.hpp"
#include "wf/pipeline.hpp"
#include "wf/sim_executor.hpp"

namespace scidock::wf {
namespace {

Relation numbers(int n) {
  Relation rel{{"id", "engine", "workload", "hg", "pair"}};
  for (int i = 0; i < n; ++i) {
    Tuple t;
    t.set("id", std::to_string(i));
    t.set("engine", i % 2 ? "vina" : "ad4");
    t.set("workload", "1.0");
    t.set("hg", "0");
    t.set("pair", "p" + std::to_string(i));
    rel.add(std::move(t));
  }
  return rel;
}

/// Two-stage pipeline: "double" then "stringify".
Pipeline toy_pipeline(std::atomic<int>* failures_to_inject = nullptr) {
  Pipeline p;
  p.add_stage(Stage{
      "double", AlgebraicOp::Map,
      [failures_to_inject](const Tuple& in, ActivationContext& ctx) {
        if (failures_to_inject && failures_to_inject->fetch_sub(1) > 0) {
          throw ActivityError("injected failure");
        }
        Tuple out = in;
        out.set("doubled", std::to_string(2 * std::stoi(in.require("id"))));
        ctx.emit_value("DOUBLED", 2.0 * std::stoi(in.require("id")));
        return std::vector<Tuple>{out};
      },
      nullptr, nullptr, nullptr});
  p.add_stage(Stage{
      "stringify", AlgebraicOp::Map,
      [](const Tuple& in, ActivationContext& ctx) {
        Tuple out = in;
        out.set("text", "v" + in.require("doubled"));
        ctx.emit_file("/out/" + in.require("id") + ".txt", in.require("doubled"));
        return std::vector<Tuple>{out};
      },
      nullptr, nullptr, nullptr});
  return p;
}

// ------------------------------------------------------- native executor

TEST(NativeExecutor, RunsChainAndCollectsOutput) {
  const Pipeline p = toy_pipeline();
  vfs::SharedFileSystem fs;
  prov::ProvenanceStore store;
  NativeExecutorOptions opts;
  opts.threads = 2;
  NativeExecutor exec(p, fs, store, opts);
  const NativeReport report = exec.run(numbers(10), "toy");
  EXPECT_EQ(report.output.size(), 10u);
  EXPECT_EQ(report.activations_finished, 20);
  EXPECT_EQ(report.tuples_lost, 0);
  // Output fields present and correct.
  for (const Tuple& t : report.output.tuples()) {
    EXPECT_EQ(t.require("doubled"),
              std::to_string(2 * std::stoi(t.require("id"))));
    EXPECT_EQ(t.require("text"), "v" + t.require("doubled"));
  }
  // Files and values landed.
  EXPECT_EQ(fs.list("/out/").size(), 10u);
  const auto rs = store.query("SELECT count(*) FROM hvalue WHERE key = 'DOUBLED'");
  EXPECT_EQ(rs.rows[0][0].as_int(), 10);
}

TEST(NativeExecutor, RetriesTransientFailures) {
  std::atomic<int> failures{3};  // first three attempts fail
  const Pipeline p = toy_pipeline(&failures);
  vfs::SharedFileSystem fs;
  prov::ProvenanceStore store;
  NativeExecutorOptions opts;
  opts.threads = 1;
  opts.max_attempts = 5;
  NativeExecutor exec(p, fs, store, opts);
  const NativeReport report = exec.run(numbers(4), "retry");
  EXPECT_EQ(report.output.size(), 4u);  // all recovered
  EXPECT_EQ(report.activations_failed, 3);
  // Failed attempts are visible in provenance.
  const auto rs =
      store.query("SELECT count(*) FROM hactivation WHERE status = 'FAILED'");
  EXPECT_EQ(rs.rows[0][0].as_int(), 3);
}

TEST(NativeExecutor, ExhaustedRetriesLoseTheTuple) {
  std::atomic<int> failures{1000};  // never recovers
  const Pipeline p = toy_pipeline(&failures);
  vfs::SharedFileSystem fs;
  prov::ProvenanceStore store;
  NativeExecutorOptions opts;
  opts.max_attempts = 2;
  NativeExecutor exec(p, fs, store, opts);
  const NativeReport report = exec.run(numbers(3), "lost");
  EXPECT_EQ(report.output.size(), 0u);
  EXPECT_EQ(report.tuples_lost, 3);
  EXPECT_EQ(report.activations_failed, 6);  // 3 tuples x 2 attempts
  ASSERT_EQ(report.failure_messages.size(), 3u);
  EXPECT_NE(report.failure_messages[0].find("injected"), std::string::npos);
}

TEST(NativeExecutor, NonErrorExceptionFailsOnlyItsActivation) {
  // std::stoi("x") throws std::invalid_argument, not a scidock::Error: it
  // must fail that tuple's attempts and leave the rest of the run intact.
  const Pipeline p = toy_pipeline();
  const Relation base = numbers(4);
  Relation input{{"id", "engine", "workload", "hg", "pair"}};
  for (Tuple t : base.tuples()) {
    if (t.require("id") == "1") t.set("id", "x");
    input.add(std::move(t));
  }
  for (const int threads : {1, 4}) {
    vfs::SharedFileSystem fs;
    prov::ProvenanceStore store;
    NativeExecutorOptions opts;
    opts.threads = threads;
    NativeExecutor exec(p, fs, store, opts);
    const NativeReport report = exec.run(input, "stoi");
    EXPECT_EQ(report.output.size(), 3u) << threads;
    EXPECT_EQ(report.tuples_lost, 1) << threads;
    EXPECT_EQ(report.activations_failed, opts.max_attempts) << threads;
    EXPECT_EQ(store.query("SELECT count(*) FROM hactivation "
                          "WHERE status = 'RUNNING'")
                  .rows[0][0].as_int(),
              0)
        << threads;
    EXPECT_FALSE(store.query("SELECT endtime FROM hworkflow WHERE tag = 'stoi'")
                     .rows[0][0].is_null())
        << threads;
    chaos::InvariantChecker checker;
    const chaos::RunSummary summary =
        chaos::summarize(report, opts, input.size());
    EXPECT_TRUE(checker.check_conservation(summary)) << checker.to_string();
    EXPECT_TRUE(checker.check_provenance(summary, store, "stoi",
                                         /*chain_length=*/2))
        << checker.to_string();
  }
}

TEST(NativeExecutor, FilterDropsTuples) {
  Pipeline p;
  p.add_stage(Stage{
      "keep-even", AlgebraicOp::Filter,
      [](const Tuple& in, ActivationContext&) {
        std::vector<Tuple> out;
        if (std::stoi(in.require("id")) % 2 == 0) out.push_back(in);
        return out;
      },
      nullptr, nullptr, nullptr});
  vfs::SharedFileSystem fs;
  prov::ProvenanceStore store;
  NativeExecutor exec(p, fs, store, {});
  const NativeReport report = exec.run(numbers(10), "filter");
  EXPECT_EQ(report.output.size(), 5u);
  EXPECT_EQ(report.tuples_lost, 0);
}

TEST(NativeExecutor, SplitMapFansOut) {
  Pipeline p;
  p.add_stage(Stage{
      "split", AlgebraicOp::SplitMap,
      [](const Tuple& in, ActivationContext&) {
        std::vector<Tuple> out;
        for (int k = 0; k < 3; ++k) {
          Tuple t = in;
          t.set("copy", std::to_string(k));
          out.push_back(std::move(t));
        }
        return out;
      },
      nullptr, nullptr, nullptr});
  vfs::SharedFileSystem fs;
  prov::ProvenanceStore store;
  NativeExecutor exec(p, fs, store, {});
  const NativeReport report = exec.run(numbers(4), "split");
  EXPECT_EQ(report.output.size(), 12u);
}

TEST(NativeExecutor, DeterministicAcrossThreadCounts) {
  // The per-tuple forked RNG and per-tuple tallies make the output, every
  // count and the order of the failure messages independent of
  // scheduling, faults included.
  Pipeline p = toy_pipeline();
  // A third stage rejects ids 2 and 7 on every attempt: both tuples
  // exhaust their budget and are lost.
  p.add_stage(Stage{
      "reject", AlgebraicOp::Map,
      [](const Tuple& in, ActivationContext&) {
        const int id = std::stoi(in.require("id"));
        if (id % 5 == 2) {
          throw ActivityError("reject id " + std::to_string(id));
        }
        return std::vector<Tuple>{in};
      },
      nullptr, nullptr, nullptr});
  // First attempts hang at "double" for ids 0, 4, 8 and fail at
  // "stringify" for ids 1, 5, 9; the retries succeed.
  const FaultInjectorFn faults = [](const std::string& tag, const Tuple& t,
                                    int attempt) {
    const int id = std::stoi(t.require("id"));
    if (attempt != 1) return InjectedFault::None;
    if (tag == "double" && id % 4 == 0) return InjectedFault::Hang;
    if (tag == "stringify" && id % 4 == 1) return InjectedFault::Failure;
    return InjectedFault::None;
  };
  auto key_set = [](const Relation& rel) {
    std::set<std::string> keys;
    for (const Tuple& t : rel.tuples()) {
      keys.insert(t.require("id") + ":" + t.require("doubled"));
    }
    return keys;
  };
  auto activity_counts = [](const NativeReport& r) {
    std::map<std::string, std::size_t> counts;
    for (const auto& [tag, stats] : r.per_activity_seconds) {
      counts[tag] = stats.count();
    }
    return counts;
  };

  std::optional<NativeReport> serial;
  for (int threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    vfs::SharedFileSystem fs;
    prov::ProvenanceStore store;
    NativeExecutorOptions opts;
    opts.threads = threads;
    opts.max_attempts = 3;
    opts.fault_injector = faults;
    NativeReport r = NativeExecutor(p, fs, store, opts).run(numbers(12), "d");
    if (!serial) {
      EXPECT_EQ(r.activations_finished, 12 + 12 + 10);
      EXPECT_EQ(r.activations_failed, 3 + 2 * 3);
      EXPECT_EQ(r.activations_hung, 3);
      EXPECT_EQ(r.tuples_completed, 10);
      EXPECT_EQ(r.tuples_lost, 2);
      ASSERT_EQ(r.output.size(), 10u);
      EXPECT_EQ(r.failure_messages,
                (std::vector<std::string>{"reject id 2", "reject id 7"}));
      serial = std::move(r);
      continue;
    }
    EXPECT_EQ(r.activations_finished, serial->activations_finished);
    EXPECT_EQ(r.activations_failed, serial->activations_failed);
    EXPECT_EQ(r.activations_hung, serial->activations_hung);
    EXPECT_EQ(r.tuples_completed, serial->tuples_completed);
    EXPECT_EQ(r.tuples_lost, serial->tuples_lost);
    EXPECT_EQ(activity_counts(r), activity_counts(*serial));
    EXPECT_EQ(r.failure_messages, serial->failure_messages);
    ASSERT_EQ(r.output.size(), serial->output.size());
    EXPECT_EQ(key_set(r.output), key_set(serial->output));
  }
}

TEST(NativeExecutor, StagesRelationFilesOnSharedFs) {
  const Pipeline p = toy_pipeline();
  vfs::SharedFileSystem fs;
  prov::ProvenanceStore store;
  NativeExecutor exec(p, fs, store, {});
  const NativeReport report = exec.run(numbers(5), "rels");
  // input_1.txt round-trips into the original relation ...
  const Relation in_back = Relation::from_file_text(
      fs.read("/root/exp_scidock/relations/input_1.txt"));
  EXPECT_EQ(in_back.size(), 5u);
  EXPECT_EQ(in_back.field_names().front(), "id");
  // ... and output_1.txt matches the report's output relation.
  const Relation out_back = Relation::from_file_text(
      fs.read("/root/exp_scidock/relations/output_1.txt"));
  EXPECT_EQ(out_back.size(), report.output.size());
  // Both are discoverable through provenance.
  const auto rs = store.query(
      "SELECT count(*) FROM hfile WHERE fname LIKE '%_1.txt'");
  EXPECT_EQ(rs.rows[0][0].as_int(), 2);
}

// ---------------------------------------------------- simulated executor

cloud::CostModel toy_cost_model() {
  cloud::CostModel model;
  model.set_cost({"double", 10.0, 0.3, 0.5});
  model.set_cost({"stringify", 5.0, 0.3, 0.5});
  return model;
}

SimExecutorOptions quiet_sim(int cores) {
  SimExecutorOptions opts;
  opts.fleet = m3_fleet_for_cores(cores);
  opts.failure.failure_probability = 0.0;
  opts.failure.hang_probability = 0.0;
  return opts;
}

TEST(SimulatedExecutor, CompletesAllTuples) {
  const Pipeline p = toy_pipeline();
  SimulatedExecutor exec(p, toy_cost_model(), quiet_sim(4));
  const SimReport report = exec.run(numbers(20));
  EXPECT_EQ(report.tuples_completed, 20);
  EXPECT_EQ(report.activations_finished, 40);
  EXPECT_EQ(report.tuples_lost, 0);
  EXPECT_GT(report.total_execution_time_s, 0.0);
  EXPECT_GT(report.cloud_cost_usd, 0.0);
  EXPECT_EQ(report.per_activity_seconds.size(), 2u);
}

TEST(SimulatedExecutor, DeterministicGivenSeed) {
  const Pipeline p = toy_pipeline();
  SimExecutorOptions opts = quiet_sim(4);
  opts.seed = 99;
  const SimReport a = SimulatedExecutor(p, toy_cost_model(), opts).run(numbers(20));
  const SimReport b = SimulatedExecutor(p, toy_cost_model(), opts).run(numbers(20));
  EXPECT_DOUBLE_EQ(a.total_execution_time_s, b.total_execution_time_s);
  EXPECT_EQ(a.activations_finished, b.activations_finished);
}

TEST(SimulatedExecutor, MoreCoresFasterTet) {
  const Pipeline p = toy_pipeline();
  const SimReport slow = SimulatedExecutor(p, toy_cost_model(), quiet_sim(2))
                             .run(numbers(200));
  const SimReport fast = SimulatedExecutor(p, toy_cost_model(), quiet_sim(16))
                             .run(numbers(200));
  EXPECT_GT(slow.total_execution_time_s, 2.0 * fast.total_execution_time_s);
}

TEST(SimulatedExecutor, FailuresAreReexecuted) {
  const Pipeline p = toy_pipeline();
  SimExecutorOptions opts = quiet_sim(4);
  opts.failure.failure_probability = 0.3;
  const SimReport report =
      SimulatedExecutor(p, toy_cost_model(), opts).run(numbers(100));
  EXPECT_GT(report.activations_failed, 10);
  EXPECT_EQ(report.tuples_completed, 100);  // all recovered via retry
  EXPECT_EQ(report.tuples_lost, 0);
}

TEST(SimulatedExecutor, ReexecutionOffLosesFailedTuples) {
  const Pipeline p = toy_pipeline();
  SimExecutorOptions opts = quiet_sim(4);
  opts.failure.failure_probability = 0.3;
  opts.reexecute_failures = false;
  const SimReport report =
      SimulatedExecutor(p, toy_cost_model(), opts).run(numbers(100));
  EXPECT_GT(report.tuples_lost, 10);
  EXPECT_EQ(report.tuples_completed + report.tuples_lost, 100);
}

TEST(SimulatedExecutor, HazardPreabortSkipsHangTimeout) {
  Pipeline p;
  p.add_stage(Stage{"double", AlgebraicOp::Map, nullptr, nullptr, nullptr,
                    [](const Tuple& t) { return t.require("hg") == "1"; }});
  Relation rel{{"id", "hg"}};
  for (int i = 0; i < 10; ++i) {
    Tuple t;
    t.set("id", std::to_string(i));
    t.set("hg", i == 0 ? "1" : "0");
    rel.add(std::move(t));
  }
  cloud::CostModel model;
  model.set_cost({"double", 10.0, 0.3, 0.5});

  SimExecutorOptions with_fix = quiet_sim(2);
  with_fix.preabort_hazards = true;
  const SimReport fixed = SimulatedExecutor(p, model, with_fix).run(rel);
  EXPECT_EQ(fixed.tuples_lost, 1);  // the Hg tuple, aborted instantly

  SimExecutorOptions without_fix = quiet_sim(2);
  without_fix.preabort_hazards = false;
  without_fix.failure.hang_timeout_s = 500.0;
  const SimReport broken = SimulatedExecutor(p, model, without_fix).run(rel);
  // Without the routine, the hang timeout is burned max_attempts times.
  EXPECT_GT(broken.total_execution_time_s,
            fixed.total_execution_time_s + 400.0);
  EXPECT_GT(broken.activations_hung, fixed.activations_hung);
}

TEST(SimulatedExecutor, ElasticityAcquiresVms) {
  const Pipeline p = toy_pipeline();
  SimExecutorOptions opts = quiet_sim(2);
  opts.elasticity = true;
  opts.min_vms = 1;
  opts.max_vms = 8;
  opts.elastic_vm_type = cloud::vm_type_m3_xlarge();
  opts.elasticity_period_s = 30.0;
  const SimReport report =
      SimulatedExecutor(p, toy_cost_model(), opts).run(numbers(400));
  EXPECT_GT(report.peak_alive_vms, 1);
  EXPECT_EQ(report.tuples_completed, 400);
}

TEST(SimulatedExecutor, ElasticRunEndsAtItsLastActivation) {
  // The controller's next tick is still queued when the last activation
  // ends; it must not stretch the TET or the workflow's end time.
  const Pipeline p = toy_pipeline();
  prov::ProvenanceStore store;
  SimExecutorOptions opts = quiet_sim(2);
  opts.elasticity = true;
  opts.max_vms = 8;
  opts.elastic_vm_type = cloud::vm_type_m3_xlarge();
  opts.elasticity_period_s = 30.0;
  const SimReport report = SimulatedExecutor(p, toy_cost_model(), opts)
                               .run(numbers(400), &store, "elastic");
  const double last_end =
      store.query("SELECT max(endtime) FROM hactivation").rows[0][0].as_double();
  EXPECT_EQ(report.total_execution_time_s, last_end);
  const auto wf =
      store.query("SELECT endtime FROM hworkflow WHERE tag = 'elastic'");
  EXPECT_DOUBLE_EQ(wf.rows[0][0].as_double(), last_end);
}

TEST(SimulatedExecutor, ProvenanceMatchesReport) {
  const Pipeline p = toy_pipeline();
  prov::ProvenanceStore store;
  SimExecutorOptions opts = quiet_sim(4);
  opts.failure.failure_probability = 0.2;
  const SimReport report =
      SimulatedExecutor(p, toy_cost_model(), opts).run(numbers(50), &store, "toy");
  const auto finished = store.query(
      "SELECT count(*) FROM hactivation WHERE status = 'FINISHED'");
  EXPECT_EQ(finished.rows[0][0].as_int(), report.activations_finished);
  const auto failed = store.query(
      "SELECT count(*) FROM hactivation WHERE status = 'FAILED'");
  EXPECT_EQ(failed.rows[0][0].as_int(), report.activations_failed);
  // Workflow row closed with the TET.
  const auto wf = store.query("SELECT endtime FROM hworkflow WHERE tag = 'toy'");
  EXPECT_DOUBLE_EQ(wf.rows[0][0].as_double(), report.total_execution_time_s);
}

TEST(SimulatedExecutor, AttemptNumbersAreOneBasedAndConsecutive) {
  // Regression: the executor used to stamp provenance with
  // the tuple's attempt counter *after* mutating it — FINISHED rows
  // always claimed attempt 1 and the first FAILED attempt claimed 2.
  const Pipeline p = toy_pipeline();
  prov::ProvenanceStore store;
  SimExecutorOptions opts = quiet_sim(4);
  opts.failure.failure_probability = 0.4;
  opts.failure.max_attempts = 8;
  const SimReport report =
      SimulatedExecutor(p, toy_cost_model(), opts).run(numbers(60), &store, "att");
  ASSERT_GT(report.activations_failed, 0);

  // The first attempt of a failing activation is attempt 1, not 2.
  const auto min_failed = store.query(
      "SELECT min(attempts) FROM hactivation WHERE status = 'FAILED'");
  EXPECT_EQ(min_failed.rows[0][0].as_int(), 1);
  // A FINISHED row after n failures carries attempt n + 1: per workload
  // and activity, FAILED rows number 1..n and FINISHED closes at n + 1.
  std::map<std::pair<long long, std::string>, std::pair<int, int>> sites;
  for (const sql::Row& row :
       store.query("SELECT actid, workload, status, attempts FROM hactivation")
           .rows) {
    auto& [fails, finish_attempt] =
        sites[{row[0].as_int(), row[1].as_string()}];
    if (row[2].as_string() == "FAILED") ++fails;
    else finish_attempt = static_cast<int>(row[3].as_int());
  }
  for (const auto& [site, counts] : sites) {
    if (counts.second == 0) {
      // Lost tuple: every attempt failed, exhausting the budget.
      EXPECT_EQ(counts.first, opts.failure.max_attempts);
      continue;
    }
    EXPECT_EQ(counts.second, counts.first + 1)
        << "workload " << site.second << ": FINISHED attempt should follow "
        << counts.first << " failures";
  }
}

TEST(NativeExecutor, InjectedHangsAreAbortedAndRetried) {
  const Pipeline p = toy_pipeline();
  vfs::SharedFileSystem fs;
  prov::ProvenanceStore store;
  NativeExecutorOptions opts;
  opts.max_attempts = 3;
  // First attempt of stage "double" hangs for every tuple; retries run.
  opts.fault_injector = [](const std::string& tag, const Tuple&, int attempt) {
    return tag == "double" && attempt == 1 ? InjectedFault::Hang
                                           : InjectedFault::None;
  };
  NativeExecutor exec(p, fs, store, opts);
  const NativeReport report = exec.run(numbers(5), "hangs");
  EXPECT_EQ(report.output.size(), 5u);  // all recovered on attempt 2
  EXPECT_EQ(report.activations_hung, 5);
  EXPECT_EQ(report.activations_failed, 0);
  EXPECT_EQ(report.tuples_lost, 0);
  // The aborts are visible in provenance — the paper's diagnosis path.
  const auto aborted = store.query(
      "SELECT count(*) FROM hactivation WHERE status = 'ABORTED'");
  EXPECT_EQ(aborted.rows[0][0].as_int(), 5);
}

TEST(SimulatedExecutor, UnknownStageCostRejected) {
  Pipeline p;
  p.add_stage(Stage{"mystery", AlgebraicOp::Map, nullptr, nullptr, nullptr, nullptr});
  EXPECT_THROW(SimulatedExecutor(p, toy_cost_model(), quiet_sim(2)),
               InvalidStateError);
}

}  // namespace
}  // namespace scidock::wf
