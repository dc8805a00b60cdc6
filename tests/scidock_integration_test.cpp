// End-to-end integration tests: the full SciDock workflow (all eight
// activities with real docking) over a small slice of the Table 2
// dataset, native and simulated, plus the paper's provenance queries.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/invariants.hpp"
#include "data/generator.hpp"
#include "data/table2.hpp"
#include "dock/grid.hpp"
#include "mol/io_pdbqt.hpp"
#include "scidock/analysis.hpp"
#include "scidock/experiment.hpp"
#include "util/strings.hpp"

namespace scidock {
namespace {

core::ScidockOptions fast_options() {
  core::ScidockOptions opts;
  // Small structures + low search effort: a pair docks in well under a
  // second so the integration suite stays quick.
  opts.dataset.min_residues = 12;
  opts.dataset.max_residues = 30;
  opts.dataset.min_ligand_atoms = 8;
  opts.dataset.max_ligand_atoms = 14;
  opts.grid_spacing = 0.8;
  opts.ad4_params.ga_runs = 1;
  opts.ad4_params.ga_pop_size = 10;
  opts.ad4_params.ga_num_evals = 300;
  opts.ad4_params.ga_num_generations = 10;
  opts.ad4_params.sw_max_its = 15;
  opts.vina_exhaustiveness = 1;
  opts.vina_steps_per_chain = 8;
  return opts;
}

std::vector<std::string> some_receptors(int n) {
  const auto& all = data::table2_receptors();
  return {all.begin(), all.begin() + n};
}

// Adaptive routing sends each pair down the AD4 or the Vina branch by
// receptor size, and the branches add different fields (dpf_file vs
// conf_file). Every pair must still reach the output or be recorded as
// lost.
TEST(ScidockIntegration, NativeRunProducesDockedPairs) {
  const core::ScidockOptions opts = fast_options();
  // Two receptors on each side of the routing threshold.
  std::vector<std::string> small, large;
  for (const std::string& code : data::table2_receptors()) {
    const bool vina = data::receptor_residue_count(code, opts.dataset) >
                      data::vina_size_threshold(opts.dataset);
    std::vector<std::string>& side = vina ? large : small;
    if (side.size() < 2) side.push_back(code);
  }
  std::vector<std::string> receptors = small;
  receptors.insert(receptors.end(), large.begin(), large.end());
  ASSERT_EQ(receptors.size(), 4u);
  auto exp = core::make_experiment(receptors, {"042", "074"}, 0, opts);
  ASSERT_EQ(exp.pairs.size(), 8u);
  const wf::NativeReport report = core::run_native(exp, /*threads=*/2);
  EXPECT_EQ(report.output.size() + static_cast<std::size_t>(report.tuples_lost),
            exp.pairs.size());
  std::set<std::string> engines;
  for (const wf::Tuple& t : report.output.tuples()) {
    engines.insert(t.require("engine"));
    EXPECT_TRUE(t.has("feb"));
    EXPECT_TRUE(t.has("rmsd"));
    EXPECT_TRUE(t.has("dlg_file"));
    EXPECT_TRUE(exp.fs->exists(t.require("dlg_file")));
  }
  EXPECT_EQ(engines, (std::set<std::string>{"ad4", "vina"}));
  EXPECT_GT(report.activations_finished, 0);
}

TEST(ScidockIntegration, VinaActivityWritesOutputPoses) {
  core::ScidockOptions opts = fast_options();
  opts.engine_mode = core::EngineMode::ForceVina;
  auto exp = core::make_experiment(some_receptors(2), {"042"}, 0, opts);
  const wf::NativeReport report = core::run_native(exp, 1);
  ASSERT_GT(report.output.size(), 0u);
  // Every docked pair has an _out.pdbqt with parseable MODEL blocks
  // ("Vina generates a new version of the PDBQT file", Section IV.A).
  int out_files = 0;
  for (const auto& info : exp.fs->list("/")) {
    if (!info.path.ends_with("_out.pdbqt")) continue;
    ++out_files;
    const auto models = mol::read_pdbqt_models(exp.fs->read(info.path));
    EXPECT_GE(models.size(), 1u);
    EXPECT_TRUE(models[0].is_ligand);
  }
  EXPECT_EQ(out_files, static_cast<int>(report.output.size()));
}

TEST(ScidockIntegration, AutogridCanPersistMapFiles) {
  core::ScidockOptions opts = fast_options();
  opts.write_map_files = true;  // the real AutoGrid always writes them
  opts.engine_mode = core::EngineMode::ForceAd4;
  auto exp = core::make_experiment(some_receptors(1), {"042"}, 0, opts);
  const wf::NativeReport report = core::run_native(exp, 1);
  ASSERT_GT(report.output.size(), 0u);
  int map_files = 0;
  for (const auto& info : exp.fs->list("/")) {
    if (!info.path.ends_with(".map")) continue;
    ++map_files;
    // Each persisted map parses back into a grid of the declared size.
    const dock::GridMap map =
        dock::GridMap::from_map_file(exp.fs->read(info.path));
    EXPECT_GT(map.values().size(), 0u);
  }
  // At least one per ligand atom type plus electrostatic + desolvation.
  EXPECT_GE(map_files, 3);
  // The field file is recorded in provenance alongside the maps.
  const auto rs = exp.prov->query(
      "SELECT count(*) FROM hfile WHERE fname LIKE '%.maps.fld'");
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
}

TEST(ScidockIntegration, VinaMapSetPersistsOnlyItsPerTypeMaps) {
  core::ScidockOptions opts = fast_options();
  opts.write_map_files = true;
  opts.engine_mode = core::EngineMode::ForceVina;
  const std::string receptor = some_receptors(1)[0];
  auto exp = core::make_experiment({receptor}, data::table2_ligands(), 0, opts);
  const wf::NativeReport report = core::run_native(exp, 2);
  ASSERT_EQ(report.output.size(), data::table2_ligands().size());
  // One map per non-hydrogen type of the campaign's census (HD C A N NA
  // OA F SA Cl over the 42 Table 2 ligands); no e/d maps for Vina.
  const std::string pair_dir = "/autogrid/042_" + receptor + "/";
  int map_files = 0;
  std::string fld;
  for (const auto& info : exp.fs->list("/")) {
    if (info.path.find(pair_dir) == std::string::npos) continue;
    if (info.path.ends_with(".maps.fld")) fld = exp.fs->read(info.path);
    if (!info.path.ends_with(".map")) continue;
    ++map_files;
    EXPECT_FALSE(info.path.ends_with(".e.map") || info.path.ends_with(".d.map"))
        << info.path;
  }
  EXPECT_EQ(map_files, 8);
  EXPECT_NE(fld.find("nmaps 10\n"), std::string::npos) << fld;
}

// A receptor whose PDB carries a NaN coordinate fails its prepreceptor
// activation on every attempt: its pairs are recorded as lost, and every
// other pair docks.
TEST(ScidockIntegration, NonFiniteReceptorLosesOnlyItsPairs) {
  const core::ScidockOptions opts = fast_options();
  const std::vector<std::string> receptors = some_receptors(2);
  auto exp = core::make_experiment(receptors, {"042", "074"}, 0, opts);
  const std::string path = opts.expdir + "/input/" + receptors[0] + ".pdb";
  std::string pdb = exp.fs->read(path);
  const std::size_t atom = pdb.find("\nATOM  ");
  ASSERT_NE(atom, std::string::npos);
  pdb.replace(atom + 1 + 30, 8, "     nan");  // the x field, columns 31-38
  exp.fs->write(path, pdb, 0.0, "test");

  const wf::NativeReport report = core::run_native(exp, 2);
  EXPECT_EQ(report.tuples_lost, 2);
  ASSERT_EQ(report.output.size(), 2u);
  for (const wf::Tuple& t : report.output.tuples()) {
    EXPECT_EQ(t.require("receptor"), receptors[1]);
  }
  ASSERT_FALSE(report.failure_messages.empty());
  EXPECT_NE(report.failure_messages[0].find("non-finite"), std::string::npos)
      << report.failure_messages[0];
  chaos::InvariantChecker checker;
  EXPECT_TRUE(checker.check_conservation(chaos::summarize(
      report, wf::NativeExecutorOptions{}, exp.pairs.size())))
      << checker.to_string();
}

// AutoGrid builds only the map set of the engine activity 6 routes the
// pair to. Both apply core::docking_engine, so the set's scoring function
// and the pair's route agree for every Table 2 receptor in every mode.
TEST(ScidockIntegration, AutogridMapSetMatchesDockfilterRoute) {
  core::ScidockOptions opts = fast_options();
  opts.dataset.hg_fraction = 0.0;
  opts.grid_spacing = 4.0;  // the routing, not the map values, is checked
  opts.ad4_params.ga_pop_size = 4;
  opts.ad4_params.ga_num_evals = 8;
  opts.ad4_params.ga_num_generations = 1;
  opts.ad4_params.sw_max_its = 1;
  opts.vina_steps_per_chain = 1;
  const std::vector<std::string>& receptors = data::table2_receptors();
  for (const core::EngineMode mode :
       {core::EngineMode::Adaptive, core::EngineMode::ForceAd4,
        core::EngineMode::ForceVina}) {
    opts.engine_mode = mode;
    auto exp = core::make_experiment(receptors, {"042"}, 0, opts);
    const wf::NativeReport report = core::run_native(exp, 4);
    ASSERT_EQ(report.output.size(), receptors.size());
    std::set<std::string> engines;
    for (const wf::Tuple& t : report.output.tuples()) {
      const auto maps = exp.cache->maps(t.require("maps_prefix"));
      ASSERT_NE(maps, nullptr);
      const std::string built =
          maps->scoring == dock::ScoringFunction::Vina ? "vina" : "ad4";
      EXPECT_EQ(built, t.require("engine")) << t.require("receptor");
      EXPECT_EQ(built, core::docking_engine(t, opts));
      engines.insert(built);
    }
    const std::set<std::string> expected =
        mode == core::EngineMode::Adaptive
            ? std::set<std::string>{"ad4", "vina"}
            : std::set<std::string>{
                  mode == core::EngineMode::ForceAd4 ? "ad4" : "vina"};
    EXPECT_EQ(engines, expected);
  }
}

TEST(ScidockIntegration, HgReceptorIsRejectedAndTupleLost) {
  // Find an Hg-flagged receptor code in the real list.
  core::ScidockOptions opts = fast_options();
  opts.dataset.hg_fraction = 1.0;  // force the hazard
  auto exp = core::make_experiment(some_receptors(1), {"042"}, 0, opts);
  const wf::NativeReport report = core::run_native(exp, 1);
  EXPECT_EQ(report.output.size(), 0u);
  EXPECT_EQ(report.tuples_lost, 1);
  EXPECT_GT(report.activations_failed, 0);
  ASSERT_FALSE(report.failure_messages.empty());
  EXPECT_NE(report.failure_messages[0].find("unparameterised"),
            std::string::npos);
}

TEST(ScidockIntegration, Query1RunsVerbatimAgainstProvenance) {
  auto exp = core::make_experiment(some_receptors(2), {"042"}, 0,
                                   fast_options());
  core::run_native(exp, 1);
  const sql::ResultSet rs = exp.prov->query(core::query1(1));
  ASSERT_FALSE(rs.rows.empty());
  ASSERT_EQ(rs.columns.size(), 5u);  // tag, min, max, sum, avg
  for (const sql::Row& row : rs.rows) {
    EXPECT_TRUE(row[0].is_string());
    const double min = row[1].as_double();
    const double max = row[2].as_double();
    const double sum = row[3].as_double();
    const double avg = row[4].as_double();
    EXPECT_LE(min, max);
    EXPECT_GE(sum, avg);
    EXPECT_GE(avg, min);
    EXPECT_LE(avg, max);
  }
}

TEST(ScidockIntegration, Query2FindsDlgFiles) {
  core::ScidockOptions opts = fast_options();
  opts.engine_mode = core::EngineMode::ForceAd4;  // guarantees .dlg output
  auto exp = core::make_experiment(some_receptors(2), {"042"}, 0, opts);
  core::run_native(exp, 1);
  const sql::ResultSet rs = exp.prov->query(core::query2());
  ASSERT_FALSE(rs.rows.empty());
  for (const sql::Row& row : rs.rows) {
    EXPECT_TRUE(ends_with(row[2].as_string(), ".dlg"));
    EXPECT_GT(row[3].as_int(), 0);  // fsize
    EXPECT_FALSE(row[4].as_string().empty());  // fdir
  }
}

TEST(ScidockIntegration, SimulatedRunCompletesAllTuples) {
  auto exp = core::make_experiment(some_receptors(4), {"042", "074"}, 0,
                                   fast_options());
  prov::ProvenanceStore prov_store;
  const wf::SimReport report =
      core::run_simulated(exp, /*virtual_cores=*/8, &prov_store);
  EXPECT_EQ(report.tuples_completed,
            static_cast<long long>(exp.pairs.size()));
  EXPECT_GT(report.total_execution_time_s, 0.0);
  EXPECT_GT(report.activations_finished, 0);
  // Provenance captured simulated activations too.
  const sql::ResultSet rs = prov_store.query(
      "SELECT count(*) FROM hactivation WHERE status = 'FINISHED'");
  EXPECT_EQ(rs.rows[0][0].as_int(), report.activations_finished);
}

TEST(ScidockIntegration, SimulatedSpeedupIsNearLinearTo32Cores) {
  auto exp = core::make_experiment(some_receptors(30), {"042", "074"}, 0,
                                   fast_options());
  wf::SimExecutorOptions base = core::default_sim_options(2);
  base.failure.failure_probability = 0.0;  // isolate the scaling behaviour
  base.failure.hang_probability = 0.0;
  const double tet2 =
      core::run_simulated(exp, 2, nullptr, base).total_execution_time_s;
  wf::SimExecutorOptions wide = core::default_sim_options(16);
  wide.failure = base.failure;
  const double tet16 =
      core::run_simulated(exp, 16, nullptr, wide).total_execution_time_s;
  const double speedup = tet2 / tet16 * (16.0 / 2.0) / (16.0 / 2.0);
  EXPECT_GT(tet2 / tet16, 4.0);  // clearly parallel
  (void)speedup;
}

}  // namespace
}  // namespace scidock
