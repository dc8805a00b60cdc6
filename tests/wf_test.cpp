// Tests for the workflow model: relations, templates, XML specs,
// pipelines, schedulers.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cloud/vm.hpp"
#include "scidock/scidock.hpp"
#include "util/error.hpp"
#include "wf/pipeline.hpp"
#include "wf/relation.hpp"
#include "wf/relational.hpp"
#include "wf/scheduler.hpp"
#include "wf/sim_executor.hpp"
#include "wf/spec.hpp"
#include "wf/template.hpp"
#include "wf/workflow.hpp"

namespace scidock::wf {
namespace {

// ------------------------------------------------------------- relation

TEST(Tuple, SetGetRequire) {
  Tuple t;
  t.set("receptor", "2HHN");
  t.set("ligand", "0E6");
  EXPECT_EQ(t.get("receptor"), "2HHN");
  EXPECT_EQ(t.require("ligand"), "0E6");
  EXPECT_FALSE(t.get("nope"));
  EXPECT_THROW(t.require("nope"), NotFoundError);
  t.set("receptor", "1HUC");  // overwrite
  EXPECT_EQ(t.get("receptor"), "1HUC");
  EXPECT_EQ(t.fields().size(), 2u);
  EXPECT_DOUBLE_EQ(t.get_double("missing", 1.5), 1.5);
}

TEST(Relation, SchemaEnforced) {
  Relation rel{{"a", "b"}};
  Tuple good;
  good.set("a", "1");
  good.set("b", "2");
  rel.add(good);
  Tuple bad;
  bad.set("a", "1");
  EXPECT_THROW(rel.add(bad), InvalidStateError);
  EXPECT_EQ(rel.size(), 1u);
}

TEST(Relation, FileRoundTrip) {
  Relation rel{{"pair", "receptor", "ligand"}};
  for (int i = 0; i < 3; ++i) {
    Tuple t;
    t.set("pair", "p" + std::to_string(i));
    t.set("receptor", "2HHN");
    t.set("ligand", "0E6");
    rel.add(std::move(t));
  }
  const Relation back = Relation::from_file_text(rel.to_file_text());
  EXPECT_EQ(back.field_names(), rel.field_names());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.tuples()[2].require("pair"), "p2");
}

// Routed pipelines give the output relation cells some tuples leave empty
// (an AD4 pair has no conf_file); they must survive the file round trip,
// including in the last column and in a row with no value at all.
TEST(Relation, FileRoundTripKeepsEmptyCells) {
  Relation rel{{"pair", "dpf_file", "conf_file"}};
  const std::vector<std::vector<std::string>> rows = {
      {"ad4", "a.dpf", ""}, {"vina", "", "v.conf"}, {"", "", ""}};
  for (const auto& row : rows) {
    Tuple t;
    for (std::size_t i = 0; i < row.size(); ++i) {
      t.set(rel.field_names()[i], row[i]);
    }
    rel.add(std::move(t));
  }
  const Relation back = Relation::from_file_text(rel.to_file_text());
  EXPECT_EQ(back.field_names(), rel.field_names());
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t i = 0; i < rows[r].size(); ++i) {
      EXPECT_EQ(back.tuples()[r].require(rel.field_names()[i]), rows[r][i])
          << "row " << r << " field " << rel.field_names()[i];
    }
  }
}

TEST(Relation, FromFileRejectsBadRows) {
  EXPECT_THROW(Relation::from_file_text(""), ParseError);
  EXPECT_THROW(Relation::from_file_text("a\tb\n1\n"), ParseError);
}

// ------------------------------------------------------------- template

TEST(Template, TagExtraction) {
  const auto tags = template_tags("./vina --receptor %receptor% --ligand "
                                  "%ligand% --out %receptor%.out");
  EXPECT_EQ(tags, (std::vector<std::string>{"receptor", "ligand"}));
}

TEST(Template, Instantiation) {
  Tuple t;
  t.set("receptor", "2HHN.pdbqt");
  t.set("ligand", "0E6.pdbqt");
  EXPECT_EQ(instantiate_template("dock %receptor% %ligand% 100%%", t),
            "dock 2HHN.pdbqt 0E6.pdbqt 100%");
}

TEST(Template, Errors) {
  Tuple t;
  EXPECT_THROW(instantiate_template("x %missing% y", t), NotFoundError);
  EXPECT_THROW(instantiate_template("x %unterminated", t), ParseError);
  EXPECT_THROW(instantiate_template("x %% %%% y", t), ParseError);
}

// ------------------------------------------------------------- workflow

TEST(Workflow, AlgebraicOpRoundTrip) {
  for (AlgebraicOp op : {AlgebraicOp::Map, AlgebraicOp::SplitMap,
                         AlgebraicOp::Filter, AlgebraicOp::Reduce,
                         AlgebraicOp::SRQuery}) {
    EXPECT_EQ(algebraic_op_from(to_string(op)), op);
  }
  EXPECT_THROW(algebraic_op_from("NOPE"), NotFoundError);
}

WorkflowDef two_activity_def() {
  WorkflowDef def;
  def.tag = "mini";
  ActivityDef a;
  a.tag = "first";
  a.relations = {RelationDef{"rel_in", "input.txt", true},
                 RelationDef{"rel_mid", "mid.txt", false}};
  ActivityDef b;
  b.tag = "second";
  b.relations = {RelationDef{"rel_mid", "mid.txt", true},
                 RelationDef{"rel_out", "out.txt", false}};
  def.activities = {b, a};  // deliberately out of order
  return def;
}

TEST(Workflow, TopologicalOrderFollowsRelations) {
  const WorkflowDef def = two_activity_def();
  const auto order = def.topological_order();
  ASSERT_EQ(order.size(), 2u);
  // "first" (index 1) must precede "second" (index 0).
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(def.producer_of("rel_mid"), 1);
  EXPECT_EQ(def.producer_of("rel_in"), -1);
}

TEST(Workflow, CycleDetected) {
  WorkflowDef def;
  ActivityDef a;
  a.tag = "a";
  a.relations = {RelationDef{"r1", "", true}, RelationDef{"r2", "", false}};
  ActivityDef b;
  b.tag = "b";
  b.relations = {RelationDef{"r2", "", true}, RelationDef{"r1", "", false}};
  def.activities = {a, b};
  EXPECT_THROW(def.topological_order(), InvalidStateError);
}

// ------------------------------------------------------------- XML spec

TEST(Spec, PaperFigure2Parses) {
  // The exact shape of the paper's Figure 2 excerpt.
  const char* xml = R"(<SciCumulus>
    <database name="scicumulus" port="5432"
              server="ec2-50-17-107-164.compute-1.amazonaws.com"/>
    <SciCumulusWorkflow tag="SciDock" description="Docking"
        exectag="scidock" expdir="/root/scidock/">
      <SciCumulusActivity tag="babel"
          templatedir="/root/scidock/template_babel/"
          activation="./experiment.cmd">
        <Relation reltype="Input" name="rel_in_1" filename="input_1.txt"/>
        <Relation reltype="Output" name="rel_out1" filename="output_1.txt"/>
      </SciCumulusActivity>
    </SciCumulusWorkflow>
  </SciCumulus>)";
  const WorkflowDef def = load_spec(xml);
  EXPECT_EQ(def.tag, "SciDock");
  EXPECT_EQ(def.exec_tag, "scidock");
  EXPECT_EQ(def.expdir, "/root/scidock/");
  EXPECT_EQ(def.database.port, 5432);
  EXPECT_EQ(def.database.server, "ec2-50-17-107-164.compute-1.amazonaws.com");
  ASSERT_EQ(def.activities.size(), 1u);
  const ActivityDef& babel = def.activities[0];
  EXPECT_EQ(babel.tag, "babel");
  EXPECT_EQ(babel.activation_command, "./experiment.cmd");
  ASSERT_NE(babel.input_relation(), nullptr);
  EXPECT_EQ(babel.input_relation()->filename, "input_1.txt");
  ASSERT_NE(babel.output_relation(), nullptr);
  EXPECT_EQ(babel.output_relation()->name, "rel_out1");
}

TEST(Spec, RoundTripThroughSaveLoad) {
  const WorkflowDef def = core::scidock_workflow_def();
  const WorkflowDef back = load_spec(save_spec(def));
  EXPECT_EQ(back.tag, def.tag);
  EXPECT_EQ(back.activities.size(), def.activities.size());
  for (std::size_t i = 0; i < def.activities.size(); ++i) {
    EXPECT_EQ(back.activities[i].tag, def.activities[i].tag);
    EXPECT_EQ(back.activities[i].op, def.activities[i].op);
    EXPECT_EQ(back.activities[i].relations.size(),
              def.activities[i].relations.size());
  }
}

TEST(Spec, RejectsInvalidDocuments) {
  EXPECT_THROW(load_spec("<NotSciCumulus/>"), Error);
  EXPECT_THROW(load_spec("<SciCumulus/>"), Error);  // no workflow
  EXPECT_THROW(load_spec("<SciCumulus><SciCumulusWorkflow tag=\"x\"/>"
                         "</SciCumulus>"),
               Error);  // no activities
  EXPECT_THROW(
      load_spec("<SciCumulus><SciCumulusWorkflow tag=\"x\">"
                "<SciCumulusActivity tag=\"a\"/>"
                "<SciCumulusActivity tag=\"a\"/>"
                "</SciCumulusWorkflow></SciCumulus>"),
      Error);  // duplicate tags
}

// ------------------------------------------------------------- pipeline

Pipeline routed_pipeline() {
  Pipeline p;
  auto passthrough = [](const Tuple& t, ActivationContext&) {
    return std::vector<Tuple>{t};
  };
  p.add_stage(Stage{"start", AlgebraicOp::Map, passthrough, nullptr, nullptr, nullptr});
  p.add_stage(Stage{"fork", AlgebraicOp::Filter, passthrough,
                    [](const Tuple& t) { return t.require("engine") == "vina"
                                                    ? std::string("right")
                                                    : std::string("left"); },
                    nullptr, nullptr});
  p.add_stage(Stage{"left", AlgebraicOp::Map, passthrough,
                    [](const Tuple&) { return std::string(kEndOfPipeline); },
                    nullptr, nullptr});
  p.add_stage(Stage{"right", AlgebraicOp::Map, passthrough,
                    [](const Tuple&) { return std::string(kEndOfPipeline); },
                    nullptr, nullptr});
  return p;
}

TEST(Pipeline, RoutingPerTuple) {
  const Pipeline p = routed_pipeline();
  Tuple ad4;
  ad4.set("engine", "ad4");
  Tuple vina;
  vina.set("engine", "vina");
  EXPECT_EQ(p.chain_for(ad4),
            (std::vector<std::string>{"start", "fork", "left"}));
  EXPECT_EQ(p.chain_for(vina),
            (std::vector<std::string>{"start", "fork", "right"}));
}

TEST(Pipeline, DefaultRouteIsNextStage) {
  Pipeline p;
  p.add_stage(Stage{"a", AlgebraicOp::Map, nullptr, nullptr, nullptr, nullptr});
  p.add_stage(Stage{"b", AlgebraicOp::Map, nullptr, nullptr, nullptr, nullptr});
  Tuple t;
  EXPECT_EQ(p.next_stage("a", t), "b");
  EXPECT_EQ(p.next_stage("b", t), kEndOfPipeline);
  EXPECT_EQ(p.stage_index("b"), 1);
  EXPECT_EQ(p.stage_index("z"), -1);
  EXPECT_THROW(p.stage("z"), NotFoundError);
}

TEST(Pipeline, DuplicateStageRejected) {
  Pipeline p;
  p.add_stage(Stage{"a", AlgebraicOp::Map, nullptr, nullptr, nullptr, nullptr});
  EXPECT_THROW(
      p.add_stage(Stage{"a", AlgebraicOp::Map, nullptr, nullptr, nullptr, nullptr}),
      InvalidStateError);
}

TEST(Pipeline, RoutingLoopDetected) {
  Pipeline p;
  p.add_stage(Stage{"a", AlgebraicOp::Map, nullptr,
                    [](const Tuple&) { return std::string("b"); }, nullptr, nullptr});
  p.add_stage(Stage{"b", AlgebraicOp::Map, nullptr,
                    [](const Tuple&) { return std::string("a"); }, nullptr, nullptr});
  Tuple t;
  EXPECT_THROW(p.chain_for(t), InvalidStateError);
}

// ------------------------------------------------------------ relational

Relation docking_output() {
  Relation rel{{"pair", "ligand", "feb", "rmsd"}};
  const char* rows[][4] = {
      {"042_2HHN", "042", "-7.5", "55.0"}, {"042_1HUC", "042", "0.3", "51.0"},
      {"0E6_2HHN", "0E6", "-6.0", "9.5"},  {"0E6_1HUC", "0E6", "-1.0", "10.1"},
  };
  for (const auto& r : rows) {
    Tuple t;
    t.set("pair", r[0]);
    t.set("ligand", r[1]);
    t.set("feb", r[2]);
    t.set("rmsd", r[3]);
    rel.add(std::move(t));
  }
  return rel;
}

TEST(Relational, NumericColumnsAreTypedForAggregates) {
  const Relation rel = docking_output();
  const Relation out = query_relation(
      rel, "SELECT ligand, count(*) n, min(feb) best FROM rel "
           "GROUP BY ligand ORDER BY ligand");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.tuples()[0].require("ligand"), "042");
  EXPECT_EQ(out.tuples()[0].require("n"), "2");
  EXPECT_EQ(out.tuples()[0].require("best"), "-7.5");
  EXPECT_EQ(out.tuples()[1].require("ligand"), "0E6");
}

TEST(Relational, HetCodesStayTextual) {
  // "042" (leading zero) and "0E6" (scientific-notation lookalike) must
  // survive the round trip as strings, not collapse to 42 / 0.
  sql::Database db;
  const Relation rel = docking_output();
  const sql::Table& table = to_sql_table(rel, db, "rel");
  EXPECT_TRUE(table.rows()[0][1].is_string());
  EXPECT_EQ(table.rows()[0][1].as_string(), "042");
  EXPECT_EQ(table.rows()[2][1].as_string(), "0E6");
  // feb is numeric.
  EXPECT_TRUE(table.rows()[0][2].is_double());
}

TEST(Relational, FilterWithWhere) {
  const Relation favorable = query_relation(
      docking_output(), "SELECT pair, feb FROM rel WHERE feb < 0 ORDER BY feb");
  ASSERT_EQ(favorable.size(), 3u);
  EXPECT_EQ(favorable.tuples()[0].require("pair"), "042_2HHN");
}

TEST(Relational, RoundTripThroughResultSet) {
  const Relation rel = docking_output();
  sql::Database db;
  to_sql_table(rel, db, "rel");
  sql::Engine engine(db);
  const Relation back = from_result_set(engine.execute("SELECT * FROM rel"));
  EXPECT_EQ(back.field_names(), rel.field_names());
  EXPECT_EQ(back.size(), rel.size());
  EXPECT_EQ(back.tuples()[0].require("pair"), "042_2HHN");
}

TEST(Relational, DuplicateTableNameRejected) {
  sql::Database db;
  to_sql_table(docking_output(), db, "rel");
  EXPECT_THROW(to_sql_table(docking_output(), db, "rel"), InvalidStateError);
}

// ------------------------------------------------------------ scheduler

cloud::VmInstance vm_with_slowdown(double jitter) {
  cloud::VmInstance vm;
  vm.id = 1;
  vm.type = cloud::vm_type_m3_xlarge();
  vm.performance_jitter = jitter;
  return vm;
}

TEST(Scheduler, GreedyGivesFastVmTheBigTask) {
  GreedyCostScheduler sched;
  std::vector<PendingActivation> queue{
      {1, "babel", 2.0, 0}, {2, "autodock4", 150.0, 0}, {3, "gpfprep", 20.0, 0}};
  EXPECT_EQ(sched.pick(queue, vm_with_slowdown(0.9)), 1u);  // fast VM
  EXPECT_EQ(sched.pick(queue, vm_with_slowdown(1.5)), 0u);  // slow VM
}

TEST(Scheduler, GreedyPrioritisesRetries) {
  GreedyCostScheduler sched;
  std::vector<PendingActivation> queue{
      {1, "autodock4", 150.0, 0}, {2, "babel", 2.0, 2}};  // babel is a retry
  EXPECT_EQ(sched.pick(queue, vm_with_slowdown(0.9)), 1u);
}

TEST(Scheduler, FifoTakesHead) {
  FifoScheduler sched;
  std::vector<PendingActivation> queue{{5, "x", 9.0, 0}, {6, "y", 1.0, 0}};
  EXPECT_EQ(sched.pick(queue, vm_with_slowdown(1.0)), 0u);
}

TEST(Scheduler, Factory) {
  EXPECT_EQ(make_scheduler("greedy-cost")->name(), "greedy-cost");
  EXPECT_EQ(make_scheduler("fifo")->name(), "fifo");
  EXPECT_THROW(make_scheduler("quantum"), NotFoundError);
}

// Property tests: randomized queues (deterministic Rng) against both
// policies. pick() must stay in bounds, and queued re-executions
// (attempts > 0) must never starve behind fresh activations.

std::vector<PendingActivation> random_queue(Rng& rng, long long& next_id,
                                            std::size_t size) {
  std::vector<PendingActivation> queue;
  queue.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    PendingActivation pa;
    pa.id = next_id++;
    pa.activity_tag = "act-" + std::to_string(rng.below(4));
    pa.expected_cost_s = rng.uniform(0.1, 200.0);
    pa.attempts = rng.chance(0.25) ? static_cast<int>(1 + rng.below(4)) : 0;
    queue.push_back(std::move(pa));
  }
  return queue;
}

TEST(SchedulerProperty, PickAlwaysInBoundsAndPrefersRetries) {
  Rng rng(20240); // any seed; the property must hold for all of them
  long long next_id = 1;
  const auto policies = {std::string("greedy-cost"), std::string("fifo")};
  for (int iter = 0; iter < 300; ++iter) {
    const auto queue = random_queue(rng, next_id, 1 + rng.below(20));
    const cloud::VmInstance vm = vm_with_slowdown(rng.uniform(0.6, 1.8));
    for (const std::string& policy : policies) {
      const auto sched = make_scheduler(policy);
      const std::size_t pick = sched->pick(queue, vm);
      ASSERT_LT(pick, queue.size()) << policy << " iter " << iter;
      if (policy == "greedy-cost") {
        // If any re-execution is queued, greedy must take one of them.
        const bool any_retry = std::any_of(
            queue.begin(), queue.end(),
            [](const PendingActivation& pa) { return pa.attempts > 0; });
        if (any_retry) {
          EXPECT_GT(queue[pick].attempts, 0) << "iter " << iter;
        }
      }
    }
  }
}

TEST(SchedulerProperty, RetriesNeverStarveUnderArrivals) {
  // Drain a queue one pick at a time while fresh activations keep
  // arriving at the tail. Every re-execution initially present must be
  // dispatched within the initial queue length picks (FIFO bound; greedy
  // is stricter and drains retries first).
  for (const std::string policy : {"greedy-cost", "fifo"}) {
    Rng rng(7 + (policy == "fifo" ? 1 : 0));
    long long next_id = 1;
    for (int round = 0; round < 20; ++round) {
      auto queue = random_queue(rng, next_id, 12);
      const std::size_t bound = queue.size();
      std::vector<long long> retry_ids;
      for (const auto& pa : queue) {
        if (pa.attempts > 0) retry_ids.push_back(pa.id);
      }
      const auto sched = make_scheduler(policy);
      const cloud::VmInstance vm = vm_with_slowdown(1.0);
      std::size_t drained = 0;
      while (!retry_ids.empty()) {
        ASSERT_LE(++drained, bound)
            << policy << ": retries starved after " << bound << " picks";
        const std::size_t pick = sched->pick(queue, vm);
        ASSERT_LT(pick, queue.size());
        std::erase(retry_ids, queue[pick].id);
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
        // Fresh (attempts == 0) work keeps arriving behind the retries.
        PendingActivation fresh;
        fresh.id = next_id++;
        fresh.activity_tag = "fresh";
        fresh.expected_cost_s = rng.uniform(0.1, 200.0);
        fresh.attempts = 0;
        queue.push_back(std::move(fresh));
      }
    }
  }
}

// ---------------------------------------------------------------- fleet

TEST(Fleet, M3CombinationMatchesCoreCount) {
  for (int cores : {2, 4, 8, 16, 32, 64, 128}) {
    int total = 0;
    for (const cloud::VmType& t : m3_fleet_for_cores(cores)) total += t.cores;
    EXPECT_EQ(total, cores) << cores;
  }
  EXPECT_THROW(m3_fleet_for_cores(0), InvalidStateError);
}

TEST(Fleet, Prefers2xlarge) {
  const auto fleet = m3_fleet_for_cores(32);
  EXPECT_EQ(fleet.size(), 4u);
  for (const auto& t : fleet) EXPECT_EQ(t.name, "m3.2xlarge");
}

}  // namespace
}  // namespace scidock::wf
