// Tests for the analysis layer (Table 3 aggregation, query builders) and
// the experiment drivers (engine-mode overrides, sim option defaults,
// runtime steering monitor).

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>

#include "data/table2.hpp"
#include "scidock/analysis.hpp"
#include "scidock/experiment.hpp"
#include "sql/engine.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "wf/relational.hpp"

namespace scidock::core {
namespace {

wf::Relation fake_output() {
  wf::Relation rel{{"pair", "ligand", "feb", "rmsd"}};
  struct RowSpec {
    const char* ligand;
    double feb;
    double rmsd;
  };
  const RowSpec rows[] = {
      {"042", -7.0, 55.0}, {"042", -3.0, 52.0}, {"042", 1.0, 60.0},
      {"0E6", -5.0, 9.0},  {"0E6", 0.5, 10.0},
  };
  int i = 0;
  for (const RowSpec& r : rows) {
    wf::Tuple t;
    t.set("pair", "p" + std::to_string(i++));
    t.set("ligand", r.ligand);
    t.set("feb", strformat("%.4f", r.feb));
    t.set("rmsd", strformat("%.4f", r.rmsd));
    rel.add(std::move(t));
  }
  return rel;
}

TEST(Table3Analysis, AggregatesPerLigand) {
  const auto rows = table3_from_relation(fake_output());
  ASSERT_EQ(rows.size(), 2u);
  const Table3Row& r042 = rows[0];
  EXPECT_EQ(r042.ligand, "042");
  EXPECT_EQ(r042.total_pairs, 3);
  EXPECT_EQ(r042.favorable, 2);
  EXPECT_NEAR(r042.avg_feb_neg, -5.0, 1e-9);         // mean of -7 and -3
  EXPECT_NEAR(r042.avg_rmsd, (55 + 52 + 60) / 3.0, 1e-9);
  const Table3Row& r0e6 = rows[1];
  EXPECT_EQ(r0e6.favorable, 1);
  EXPECT_NEAR(r0e6.avg_feb_neg, -5.0, 1e-9);
}

TEST(Table3Analysis, HandlesNoFavourables) {
  wf::Relation rel{{"pair", "ligand", "feb", "rmsd"}};
  wf::Tuple t;
  t.set("pair", "p");
  t.set("ligand", "X");
  t.set("feb", "2.0");
  t.set("rmsd", "50.0");
  rel.add(std::move(t));
  const auto rows = table3_from_relation(rel);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].favorable, 0);
  EXPECT_DOUBLE_EQ(rows[0].avg_feb_neg, 0.0);
}

TEST(Table3Analysis, RenderListsEveryLigandAndTotals) {
  const auto rows = table3_from_relation(fake_output());
  const std::string text = render_table3(rows, rows);
  EXPECT_NE(text.find("042"), std::string::npos);
  EXPECT_NE(text.find("0E6"), std::string::npos);
  EXPECT_NE(text.find("TOTAL favourable interactions: AD4 3, Vina 3"),
            std::string::npos);
}

TEST(Queries, ContainPaperShapes) {
  const std::string q1 = query1(432);
  EXPECT_NE(q1.find("extract ('epoch' from (t.endtime-t.starttime))"),
            std::string::npos);
  EXPECT_NE(q1.find("w.wkfid = 432"), std::string::npos);
  EXPECT_NE(q1.find("GROUP BY a.tag"), std::string::npos);
  const std::string q2 = query2();
  EXPECT_NE(q2.find("LIKE '%.dlg'"), std::string::npos);
  const std::string q5 = figure5_query(7);
  EXPECT_NE(q5.find("ORDER BY t.endtime"), std::string::npos);
}

TEST(Experiment, ForcedEngineOverridesRouting) {
  ScidockOptions opts;
  opts.engine_mode = EngineMode::ForceVina;
  const auto exp = make_experiment({"2HHN", "1HUC"}, {"042"}, 0, opts);
  for (const wf::Tuple& t : exp.pairs.tuples()) {
    EXPECT_EQ(t.require("engine"), "vina");
  }
}

TEST(Experiment, AdaptiveKeepsMixedRouting) {
  const auto exp = make_experiment(data::table2_receptors(), {"042"}, 0, {});
  int ad4 = 0, vina = 0;
  for (const wf::Tuple& t : exp.pairs.tuples()) {
    (t.require("engine") == "vina" ? vina : ad4)++;
  }
  EXPECT_GT(ad4, 0);
  EXPECT_GT(vina, 0);
}

TEST(Experiment, DefaultSimOptionsCoverEveryStage) {
  const wf::SimExecutorOptions opts = default_sim_options(32);
  int cores = 0;
  for (const auto& t : opts.fleet) cores += t.cores;
  EXPECT_EQ(cores, 32);
  for (const char* tag : {kBabel, kAutogrid, kAutodock4, kAutodockVina}) {
    EXPECT_TRUE(opts.io_bytes.contains(tag)) << tag;
  }
  EXPECT_NEAR(opts.failure.failure_probability, 0.10, 1e-9);
}

TEST(Steering, MonitorSeesEveryActivation) {
  ScidockOptions fast;
  fast.dataset.min_residues = 12;
  fast.dataset.max_residues = 20;
  fast.dataset.hg_fraction = 0.0;
  fast.grid_spacing = 0.9;
  fast.ad4_params.ga_runs = 1;
  fast.ad4_params.ga_num_evals = 200;
  fast.ad4_params.sw_max_its = 10;
  fast.vina_exhaustiveness = 1;
  fast.vina_steps_per_chain = 5;
  auto exp = make_experiment({"2HHN", "1HUC"}, {"042"}, 0, fast);

  std::atomic<int> events{0};
  std::mutex mutex;
  std::map<std::string, int> per_tag;
  wf::NativeExecutorOptions nat;
  nat.threads = 2;
  nat.expdir = fast.expdir;
  nat.monitor = [&](const wf::ActivationEvent& e) {
    ++events;
    std::lock_guard lock(mutex);
    ++per_tag[e.activity_tag];
    EXPECT_FALSE(e.pair.empty());
    EXPECT_GE(e.seconds, 0.0);
  };
  wf::NativeExecutor executor(exp.pipeline, *exp.fs, *exp.prov, nat);
  const wf::NativeReport report = executor.run(exp.pairs, "steered");
  EXPECT_EQ(events.load(),
            report.activations_finished + report.activations_failed);
  EXPECT_EQ(per_tag[kBabel], 2);  // both pairs passed activity 1
}

// ----------------------------------------------- pinned query results

/// Digest of a result as the CLI prints it: headers, cells and row order.
std::string digest(const sql::ResultSet& rs) {
  return strformat("%016llx",
                   static_cast<unsigned long long>(fnv1a64(rs.to_text())));
}

/// Every shipped PROV-Wf query over a seeded simulated campaign of 240
/// pairs, at one and at four provenance shards. Row order and cell values
/// are pinned, so a change to how the engine resolves or evaluates a query
/// shows here; both shard counts print the same text.
TEST(ShippedQueryResults, ProvQueriesArePinned) {
  const std::map<std::string, std::string> expected = {
      {"figure5-histogram", "614d4571e7c1968f"},
      {"query1-statistics", "6e7f6a62f17e8be1"},
      {"query2-dlg-files", "a3b5d5e5aa9fb2c4"},
      {"forensics-failed-by-activity", "925115de62fe6f9a"},
      {"forensics-hg-aborts", "5cf8ca6e15dfd66c"},
      {"steering-longest-activations", "55d87c87c5917b3e"},
      {"reconcile-workflow-id", "374b08f4b3b09e19"},
      {"reconcile-activation-count", "0c15c74d582d1ff3"},
      {"reconcile-activations-by-status", "1a66b3e2559b2535"},
      {"reconcile-retried-activations", "588062442c2fe933"},
      {"reconcile-finished-autogrid", "9f87bf865ff2a3dd"},
      {"invariant-run-open-workflow", "ccdc743ae07bf3e0"},
      {"invariant-run-open-activations", "fd8b3ad3f59da468"},
      {"invariant-run-reversed-activations", "f0a102a949e753c3"},
      {"invariant-run-late-activations", "b8c218aad0bbe90a"},
      {"invariant-run-over-budget", "afbbaefd0327be7c"},
      {"invariant-run-nonconsecutive-attempts", "081657ad488b3cf3"},
      {"invariant-run-finished-not-last", "e5fdd9b6e3e2a966"},
      {"invariant-run-overlapping-attempts", "1a02530376b82aa0"},
      {"invariant-store-duplicate-wkfid", "4b02eb4f24ec5af6"},
      {"invariant-store-duplicate-actid", "7b24e5a3e2efca1e"},
      {"invariant-store-duplicate-taskid", "0405d7e648224640"},
      {"invariant-store-duplicate-fileid", "c3e1857bcb1eb0c0"},
      {"invariant-store-duplicate-valueid", "718793940bbef198"},
      {"invariant-store-references-hactivity-wkfid", "fa60519636982a6f"},
      {"invariant-store-references-hactivity-wkfid-keys", "374b08f4b3b09e19"},
      {"invariant-store-references-hactivation-actid", "0a0f297b2978d59d"},
      {"invariant-store-references-hactivation-actid-keys", "520fb3947cb3086e"},
      {"invariant-store-references-hactivation-wkfid", "06fcc235af38524d"},
      {"invariant-store-references-hactivation-wkfid-keys", "374b08f4b3b09e19"},
      {"invariant-store-references-hfile-taskid", "2ee804a70ca414ae"},
      {"invariant-store-references-hfile-taskid-keys", "d2a2cd425d09b15d"},
      {"invariant-store-references-hfile-wkfid", "74cc4510d3647555"},
      {"invariant-store-references-hfile-wkfid-keys", "374b08f4b3b09e19"},
      {"invariant-store-references-hvalue-taskid", "1ec3b0dd8e5ec0e4"},
      {"invariant-store-references-hvalue-taskid-keys", "d2a2cd425d09b15d"},
      {"invariant-store-illegal-status", "f6fc076d4ca5e8ea"},
      {"invariant-store-status-endtime-mismatch", "8e08ece5767269d0"},
      {"invariant-store-reversed-activations", "f0a102a949e753c3"},
      {"invariant-store-attempts-below-one", "04c6b42f82ec34a5"},
  };
  const std::vector<std::string>& all = data::table2_receptors();
  const Experiment exp =
      make_experiment({all.begin(), all.begin() + 40},
                      {"042", "0E6", "0LB", "ACE", "GOL", "PO4"}, 0, {});
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    prov::ProvenanceStoreOptions options;
    options.shard_count = shards;
    prov::ProvenanceStore store(options);
    run_simulated(exp, 16, &store, default_sim_options(16, 7), "SciDock");
    std::size_t checked = 0;
    for (const ShippedQuery& q : shipped_queries()) {
      if (q.catalog != "prov") continue;
      SCOPED_TRACE("shards=" + std::to_string(shards) + " " + q.name);
      ASSERT_EQ(expected.count(q.name), 1u);
      EXPECT_EQ(digest(store.query(q.sql)), expected.at(q.name));
      ++checked;
    }
    EXPECT_EQ(checked, expected.size());
  }
}

/// The relation query over the output of a small fixed-seed native run
/// (native output does not depend on the thread count).
TEST(ShippedQueryResults, RelationQueryIsPinned) {
  ScidockOptions fast;
  fast.dataset.min_residues = 12;
  fast.dataset.max_residues = 20;
  fast.grid_spacing = 0.9;
  fast.ad4_params.ga_runs = 1;
  fast.ad4_params.ga_num_evals = 200;
  fast.ad4_params.sw_max_its = 10;
  fast.vina_exhaustiveness = 1;
  fast.vina_steps_per_chain = 5;
  Experiment exp =
      make_experiment({"2HHN", "1HUC"}, {"042", "0E6", "GOL"}, 0, fast);
  const wf::NativeReport report = run_native(exp, 2);
  ASSERT_EQ(report.output.size(), 6u);
  sql::Database db;
  wf::to_sql_table(report.output, db, "rel");
  const sql::ResultSet rs = sql::Engine(db).execute(screen_summary_query());
  EXPECT_EQ(digest(rs), "dbcf680c0adb43c7") << rs.to_text();
}

TEST(Steering, ThrowingMonitorIsIsolated) {
  ScidockOptions fast;
  fast.dataset.min_residues = 12;
  fast.dataset.max_residues = 16;
  fast.dataset.hg_fraction = 0.0;
  fast.grid_spacing = 1.0;
  fast.ad4_params.ga_runs = 1;
  fast.ad4_params.ga_num_evals = 100;
  fast.vina_exhaustiveness = 1;
  fast.vina_steps_per_chain = 3;
  auto exp = make_experiment({"2HHN"}, {"042"}, 0, fast);
  wf::NativeExecutorOptions nat;
  nat.expdir = fast.expdir;
  nat.monitor = [](const wf::ActivationEvent&) {
    throw std::runtime_error("bad monitor");
  };
  wf::NativeExecutor executor(exp.pipeline, *exp.fs, *exp.prov, nat);
  const wf::NativeReport report = executor.run(exp.pairs, "hostile-monitor");
  EXPECT_EQ(report.output.size(), 1u);  // workflow unharmed
}

}  // namespace
}  // namespace scidock::core
