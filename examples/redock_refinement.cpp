// redock_refinement — the paper's Section V.D follow-up on top hits:
// "these receptor-ligand associations should be refined and reinforced
// using alternative approaches, such as ... redocking". Screen a small
// panel, pick the best interaction, read its docked pose back from the
// `_out.pdbqt` the Vina activity wrote, and redock it in a tight box at
// high local-search effort.

#include <cstdio>

#include "data/table2.hpp"
#include "dock/vina.hpp"
#include "mol/io_pdbqt.hpp"
#include "mol/prepare.hpp"
#include "scidock/experiment.hpp"
#include "util/rng.hpp"

int main() {
  using namespace scidock;

  // 1. A quick Vina screen of 12 receptors x 2 ligands.
  core::ScidockOptions options;
  options.engine_mode = core::EngineMode::ForceVina;
  const std::vector<std::string> receptors(
      data::table2_receptors().begin(), data::table2_receptors().begin() + 12);
  core::Experiment exp =
      core::make_experiment(receptors, {"042", "0E6"}, 0, options);
  const wf::NativeReport report = core::run_native(exp, 2);
  std::printf("screened %zu pairs in %.1f s\n", report.output.size(),
              report.wall_seconds);

  // 2. Pick the best interaction.
  const wf::Tuple* best = nullptr;
  double best_feb = 1e9;
  for (const wf::Tuple& t : report.output.tuples()) {
    const double feb = t.get_double("feb", 1e9);
    if (feb < best_feb) {
      best_feb = feb;
      best = &t;
    }
  }
  if (best == nullptr) {
    std::printf("no docked pairs to refine\n");
    return 1;
  }
  std::printf("top hit: %s at FEB %.2f kcal/mol\n",
              best->require("pair").c_str(), best_feb);

  // 3. Read the docked pose back from the _out.pdbqt file on the shared
  //    filesystem (the artefact the Vina activity produced).
  const std::string out_path =
      exp.options.expdir + "/autodockvina/" + best->require("pair") + "/" +
      best->require("ligand") + "_" + best->require("receptor") + "_out.pdbqt";
  const auto models = mol::read_pdbqt_models(exp.fs->read(out_path));
  std::printf("read %zu pose model(s) from %s\n", models.size(),
              out_path.c_str());

  // 4. Redock: tight box around the pose, intensified local search.
  const mol::PreparedReceptor receptor = mol::prepare_receptor(
      data::make_receptor(best->require("receptor"), options.dataset));
  const mol::PreparedLigand ligand = mol::prepare_ligand(
      data::make_ligand(best->require("ligand"), options.dataset));
  dock::Conformation pose;
  pose.coords = models.front().molecule.coordinates();
  pose.feb = best_feb;
  Rng rng(2014);
  const dock::DockingResult refined = dock::redock(receptor, ligand, pose, rng);

  std::printf("redocked: FEB %.2f kcal/mol (screen: %.2f), moved %.1f A "
              "from the screened pose, %lld energy evaluations\n",
              refined.best().feb, best_feb, refined.best().rmsd_from_input,
              refined.energy_evaluations);
  std::printf(refined.best().feb <= best_feb + 0.5
                  ? "refinement reinforced the interaction\n"
                  : "refinement weakened the interaction — candidate dropped\n");
  return 0;
}
