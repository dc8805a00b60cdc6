// Tests for the docking engines: conformations, local search, AD4 LGA,
// Vina MC, clustering, and docking-log round trips.

#include <gtest/gtest.h>

#include <cmath>

#include "data/generator.hpp"
#include "dock/autodock4.hpp"
#include "dock/cluster.hpp"
#include "dock/conformation.hpp"
#include "dock/dlg.hpp"
#include "dock/energy.hpp"
#include "dock/vina.hpp"
#include "mol/prepare.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace scidock::dock {
namespace {

using mol::Vec3;

data::GeneratorOptions tiny() {
  data::GeneratorOptions o;
  o.min_residues = 10;
  o.max_residues = 14;
  o.min_ligand_atoms = 8;
  o.max_ligand_atoms = 12;
  o.hg_fraction = 0.0;
  return o;
}

struct Fixture {
  mol::PreparedReceptor receptor;
  mol::PreparedLigand ligand;
  GridBox box;
};

Fixture make_fixture() {
  const auto opts = tiny();
  mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  mol::PreparedLigand lig = mol::prepare_ligand(data::make_ligand("042", opts));
  GridBox box = GridBox::around(rec.molecule.center(), 9.0, 0.75);
  return Fixture{std::move(rec), std::move(lig), box};
}

// --------------------------------------------------------- conformation

TEST(DockPose, RandomPlacesRootInBox) {
  Rng rng(3);
  const GridBox box = GridBox::around({5, 5, 5}, 8.0, 0.5);
  const Vec3 ref_center{100, 100, 100};
  for (int i = 0; i < 50; ++i) {
    const DockPose pose = DockPose::random(box, ref_center, 3, rng);
    EXPECT_TRUE(box.contains(ref_center + pose.rigid.translation));
    EXPECT_EQ(pose.torsions.size(), 3u);
    EXPECT_NEAR(pose.rigid.rotation.norm(), 1.0, 1e-9);
  }
}

TEST(DockPose, MutateChangesEverything) {
  Rng rng(3);
  DockPose pose = DockPose::random(GridBox{}, {0, 0, 0}, 2, rng);
  const DockPose before = pose;
  pose.mutate(1.0, 0.5, 0.5, rng);
  EXPECT_NE(before.rigid.translation.x, pose.rigid.translation.x);
  EXPECT_NE(before.torsions[0], pose.torsions[0]);
}

TEST(DockPose, MutateOneChangesOneGene) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    DockPose pose = DockPose::random(GridBox{}, {0, 0, 0}, 4, rng);
    const DockPose before = pose;
    pose.mutate_one(1.0, 0.5, 0.5, rng);
    int changed = 0;
    if (mol::distance(before.rigid.translation, pose.rigid.translation) > 1e-12) ++changed;
    if (std::abs(before.rigid.rotation.w - pose.rigid.rotation.w) > 1e-12 ||
        std::abs(before.rigid.rotation.x - pose.rigid.rotation.x) > 1e-12) ++changed;
    for (std::size_t t = 0; t < 4; ++t) {
      if (before.torsions[t] != pose.torsions[t]) ++changed;
    }
    EXPECT_EQ(changed, 1);
  }
}

TEST(DockPose, CrossoverMixesParents) {
  Rng rng(9);
  DockPose a = DockPose::random(GridBox{}, {0, 0, 0}, 6, rng);
  DockPose b = DockPose::random(GridBox{}, {0, 0, 0}, 6, rng);
  const DockPose child = a.crossover(b, rng);
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_TRUE(child.torsions[t] == a.torsions[t] ||
                child.torsions[t] == b.torsions[t]);
  }
}

TEST(SolisWets, MinimisesQuadraticBowl) {
  // Objective: squared distance of the translation from a target point.
  const Vec3 target{3.0, -2.0, 1.0};
  auto energy = [&target](const DockPose& p) {
    return mol::distance_sq(p.rigid.translation, target);
  };
  Rng rng(5);
  DockPose start;
  start.rigid.translation = {0, 0, 0};
  double best = 0.0;
  const DockPose out = solis_wets(start, energy, rng, 2000, best, 2.0, 1e-6);
  EXPECT_LT(best, 0.05);
  EXPECT_LT(mol::distance(out.rigid.translation, target), 0.3);
}

// --------------------------------------------------------- energy model

GridMapSet vina_maps(const Fixture& fx) {
  return GridMapCalculator(fx.receptor.molecule)
      .calculate(fx.box, screening_ligand_types(), ScoringFunction::Vina);
}

TEST(EnergyModels, EvaluationCountsTracked) {
  const Fixture fx = make_fixture();
  const GridMapSet maps = vina_maps(fx);
  VinaEnergyModel model(maps, fx.ligand);
  Rng rng(2);
  const DockPose pose = DockPose::random(fx.box, model.reference_center(),
                                         fx.ligand.torsions.torsion_count(), rng);
  EXPECT_EQ(model.evaluations(), 0);
  model(pose);
  model(pose);
  EXPECT_EQ(model.evaluations(), 2);
}

TEST(EnergyModels, VinaOutOfBoxPenalised) {
  const Fixture fx = make_fixture();
  const GridMapSet maps = vina_maps(fx);
  VinaEnergyModel model(maps, fx.ligand);
  DockPose inside;
  inside.rigid.translation = fx.box.center - model.reference_center();
  inside.torsions.assign(
      static_cast<std::size_t>(fx.ligand.torsions.torsion_count()), 0.0);
  DockPose outside = inside;
  outside.rigid.translation += Vec3{500, 0, 0};
  EXPECT_GT(model(outside), model(inside));
}

TEST(EnergyModels, Ad4FebAddsTorsionPenalty) {
  const Fixture fx = make_fixture();
  GridMapCalculator calc(fx.receptor.molecule);
  mol::Molecule lig = fx.ligand.molecule;
  lig.perceive();
  const GridMapSet maps = calc.calculate(fx.box, lig.ad_types_present());
  Ad4EnergyModel model(maps, fx.ligand);
  const double inter = -5.0;
  EXPECT_GT(model.feb(inter), inter);  // penalty is positive
}

// -------------------------------------------------------------- engines

TEST(Autodock4Engine, ProducesRankedConformations) {
  const Fixture fx = make_fixture();
  DockingParameterFile params;
  params.ga_runs = 3;
  params.ga_pop_size = 16;
  params.ga_num_evals = 800;
  params.ga_num_generations = 25;
  params.sw_max_its = 25;
  Autodock4Engine engine(params);
  Rng rng(77);
  const DockingResult result = engine.dock(fx.receptor, fx.ligand, fx.box, rng);
  ASSERT_EQ(result.conformations.size(), 3u);
  EXPECT_EQ(result.engine_name, "AutoDock4");
  EXPECT_GT(result.energy_evaluations, 500);
  // Ranked best-first.
  for (std::size_t i = 1; i < result.conformations.size(); ++i) {
    EXPECT_LE(result.conformations[i - 1].feb, result.conformations[i].feb);
  }
  // Conformations hold full coordinate sets.
  EXPECT_EQ(result.best().coords.size(),
            static_cast<std::size_t>(fx.ligand.molecule.atom_count()));
}

TEST(Autodock4Engine, DeterministicGivenSeed) {
  const Fixture fx = make_fixture();
  DockingParameterFile params;
  params.ga_runs = 1;
  params.ga_pop_size = 10;
  params.ga_num_evals = 300;
  params.ga_num_generations = 10;
  params.sw_max_its = 10;
  Autodock4Engine engine(params);
  Rng r1(5), r2(5);
  const DockingResult a = engine.dock(fx.receptor, fx.ligand, fx.box, r1);
  const DockingResult b = engine.dock(fx.receptor, fx.ligand, fx.box, r2);
  EXPECT_DOUBLE_EQ(a.best().feb, b.best().feb);
  EXPECT_DOUBLE_EQ(a.best().rmsd_from_input, b.best().rmsd_from_input);
}

TEST(Autodock4Engine, RejectsUnparameterisedInput) {
  const data::GeneratorOptions opts = tiny();
  // prepare_receptor rejects Hg itself, so slip an Hg ion into an
  // already prepared receptor to reach the engine's own check.
  mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  mol::Atom hg;
  hg.element = mol::Element::Hg;
  hg.name = "HG";
  hg.residue_name = "HG";
  hg.hetero = true;
  hg.pos = rec.molecule.center();
  rec.molecule.add_atom(hg);
  rec.molecule.perceive();
  ASSERT_FALSE(rec.molecule.fully_parameterised());
  mol::PreparedLigand lig = mol::prepare_ligand(data::make_ligand("042", opts));
  Autodock4Engine engine;
  Rng rng(1);
  EXPECT_THROW(engine.dock(rec, lig, GridBox::around({0, 0, 0}, 8.0, 1.0), rng),
               Error);
}

TEST(VinaEngine, ProducesModesWithinEnergyRange) {
  const Fixture fx = make_fixture();
  VinaConfig cfg;
  cfg.exhaustiveness = 4;
  cfg.num_modes = 3;
  cfg.energy_range = 5.0;
  VinaEngine engine(cfg);
  engine.steps_per_chain = 15;
  Rng rng(8);
  const DockingResult result = engine.dock(fx.receptor, fx.ligand, fx.box, rng);
  ASSERT_FALSE(result.empty());
  EXPECT_LE(result.conformations.size(), 3u);
  const double best = result.best().feb;
  for (const Conformation& c : result.conformations) {
    EXPECT_LE(c.feb, best + 5.0 + 1e-9);
  }
  EXPECT_EQ(result.engine_name, "Vina");
}

TEST(VinaEngine, FindsBetterPosesWithMoreEffort) {
  const Fixture fx = make_fixture();
  VinaConfig lo_cfg;
  lo_cfg.exhaustiveness = 1;
  VinaEngine lo(lo_cfg);
  lo.steps_per_chain = 2;
  VinaConfig hi_cfg;
  hi_cfg.exhaustiveness = 6;
  VinaEngine hi(hi_cfg);
  hi.steps_per_chain = 30;
  Rng r1(10), r2(10);
  const double feb_lo = lo.dock(fx.receptor, fx.ligand, fx.box, r1).best().feb;
  const double feb_hi = hi.dock(fx.receptor, fx.ligand, fx.box, r2).best().feb;
  EXPECT_LE(feb_hi, feb_lo + 1e-9);
}

TEST(Redock, RefinesAPreviousPose) {
  const Fixture fx = make_fixture();
  VinaConfig cfg;
  cfg.exhaustiveness = 2;
  VinaEngine vina(cfg);
  vina.steps_per_chain = 10;
  Rng rng(21);
  const DockingResult first = vina.dock(fx.receptor, fx.ligand, fx.box, rng);
  ASSERT_FALSE(first.empty());

  Rng rng2(22);
  const DockingResult refined =
      redock(fx.receptor, fx.ligand, first.best(), rng2);
  ASSERT_EQ(refined.conformations.size(), 1u);
  EXPECT_EQ(refined.engine_name, "Vina-redock");
  // The refined pose stays near the original (tight box) ...
  EXPECT_LT(refined.best().rmsd_from_input, 12.0);
  // ... and scores favourably after intensified local search.
  EXPECT_LT(refined.best().feb, 0.5);
  EXPECT_GT(refined.energy_evaluations, 50);
}

TEST(Redock, RejectsMismatchedPose) {
  const Fixture fx = make_fixture();
  Conformation wrong;
  wrong.coords = {{0, 0, 0}};
  Rng rng(1);
  EXPECT_THROW(redock(fx.receptor, fx.ligand, wrong, rng), Error);
}

// ------------------------------------------------------------ clustering

TEST(Clustering, GroupsByRmsd) {
  std::vector<Conformation> confs(4);
  confs[0].coords = {{0, 0, 0}};
  confs[0].feb = -5;
  confs[1].coords = {{0.5, 0, 0}};  // near conf 0
  confs[1].feb = -4;
  confs[2].coords = {{10, 0, 0}};   // far
  confs[2].feb = -3;
  confs[3].coords = {{10.4, 0, 0}}; // near conf 2
  confs[3].feb = -2;
  const int n = cluster_conformations(confs, 2.0);
  EXPECT_EQ(n, 2);
  EXPECT_EQ(confs[0].cluster, 0);
  EXPECT_EQ(confs[1].cluster, 0);
  EXPECT_EQ(confs[2].cluster, 1);
  EXPECT_EQ(confs[3].cluster, 1);
}

TEST(Clustering, SortsByEnergy) {
  std::vector<Conformation> confs(3);
  for (int i = 0; i < 3; ++i) {
    confs[static_cast<std::size_t>(i)].coords = {{i * 20.0, 0, 0}};
    confs[static_cast<std::size_t>(i)].feb = static_cast<double>(2 - i);
  }
  cluster_conformations(confs, 1.0);
  EXPECT_LT(confs[0].feb, confs[1].feb);
  EXPECT_LT(confs[1].feb, confs[2].feb);
}

// ------------------------------------------------------------------ dlg

DockingResult sample_result() {
  DockingResult r;
  r.receptor_name = "2HHN";
  r.ligand_name = "0E6";
  r.engine_name = "AutoDock4";
  r.energy_evaluations = 4242;
  for (int i = 0; i < 3; ++i) {
    Conformation c;
    c.coords = {{i * 1.0, 0, 0}};
    c.feb = -7.5 + i;
    c.intermolecular = c.feb - 0.5;
    c.intramolecular = -0.2;
    c.rmsd_from_input = 50.0 + i;
    c.run = i;
    r.conformations.push_back(c);
  }
  cluster_conformations(r.conformations, 2.0);
  return r;
}

TEST(Dlg, WriteAndParseSummary) {
  const DockingResult r = sample_result();
  const std::string dlg = write_dlg(r);
  EXPECT_NE(dlg.find("RMSD TABLE"), std::string::npos);
  EXPECT_NE(dlg.find("CLUSTERING HISTOGRAM"), std::string::npos);
  const DlgSummary s = parse_docking_log(dlg);
  EXPECT_EQ(s.receptor, "2HHN");
  EXPECT_EQ(s.ligand, "0E6");
  EXPECT_EQ(s.engine, "AutoDock4");
  EXPECT_NEAR(s.best_feb, -7.5, 0.01);
  EXPECT_NEAR(s.best_rmsd, 50.0, 0.01);
  EXPECT_NEAR(s.mean_feb, r.mean_feb(), 0.01);
  EXPECT_EQ(s.conformations, 3);
}

TEST(Dlg, VinaLogRoundTrip) {
  DockingResult r = sample_result();
  r.engine_name = "Vina";
  const std::string log = write_vina_log(r);
  EXPECT_NE(log.find("affinity"), std::string::npos);
  const DlgSummary s = parse_docking_log(log);
  EXPECT_EQ(s.engine, "Vina");
  EXPECT_NEAR(s.best_feb, -7.5, 0.01);
}

TEST(Dlg, ParseRejectsForeignText) {
  EXPECT_THROW(parse_docking_log("hello world\n"), ParseError);
}

TEST(Dlg, ParseRejectsNonFiniteValues) {
  // A nan or inf summary value fails the parse instead of reaching a
  // result row.
  EXPECT_THROW(parse_docking_log("ENGINE: Vina\nBEST_FEB nan\n"), ParseError);
  EXPECT_THROW(parse_docking_log("ENGINE: AutoDock4\n"
                                 "RMSD from reference structure = inf A\n"),
               ParseError);
}

TEST(DockingResult, FavorablePredicate) {
  DockingResult r = sample_result();
  EXPECT_TRUE(r.favorable());
  for (Conformation& c : r.conformations) c.feb = std::abs(c.feb);
  EXPECT_FALSE(r.favorable());
  DockingResult empty;
  EXPECT_FALSE(empty.favorable());
  EXPECT_THROW(empty.best(), Error);
}

}  // namespace
}  // namespace scidock::dock
