#include "dock/vina.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "dock/autogrid.hpp"
#include "dock/cluster.hpp"
#include "dock/energy.hpp"
#include "mol/molecule.hpp"
#include "util/error.hpp"

namespace scidock::dock {

namespace {

/// Replace a mode's map energy with the exact one (the FEB follows).
void rescore_exactly(Conformation& conf, const VinaEnergyModel& model,
                     const mol::PreparedReceptor& receptor) {
  conf.intermolecular = model.exact_intermolecular(receptor.molecule, conf.coords);
  conf.feb = model.feb(conf.intermolecular);
}

}  // namespace

VinaEngine::VinaEngine(VinaConfig config) : config_(std::move(config)) {}

DockingResult VinaEngine::dock(const mol::PreparedReceptor& receptor,
                               const mol::PreparedLigand& ligand,
                               const GridBox& box, Rng& rng) {
  return dock_with_maps(receptor,
                        ligand_maps(receptor.molecule, ligand.molecule, box,
                                    ScoringFunction::Vina),
                        ligand, rng);
}

DockingResult VinaEngine::dock_with_maps(const mol::PreparedReceptor& receptor,
                                         const GridMapSet& maps,
                                         const mol::PreparedLigand& ligand,
                                         Rng& rng) {
  SCIDOCK_REQUIRE(ligand.molecule.fully_parameterised(),
                  "Vina: ligand has unparameterised atoms");
  SCIDOCK_REQUIRE(receptor.molecule.fully_parameterised(),
                  "Vina: receptor has unparameterised atoms");
  const auto t0 = std::chrono::steady_clock::now();

  VinaEnergyModel model(maps, ligand);
  const GridBox& box = maps.box;
  const std::vector<mol::Vec3> input_coords = ligand.molecule.coordinates();
  const int n_tors = ligand.torsions.torsion_count();

  DockingResult result;
  result.receptor_name = receptor.molecule.name();
  result.ligand_name = ligand.molecule.name();
  result.engine_name = name();

  // Every chain searches through the one model: it holds no state across
  // evaluations besides the counter, so the chains stay independent.
  for (int c = 0; c < config_.exhaustiveness; ++c) {
    // Each chain gets a forked RNG, so a chain's result does not depend on
    // how many chains ran before it.
    Rng crng = rng.fork("vina-chain-" + std::to_string(c));
    DockPose current =
        DockPose::random(box, model.reference_center(), n_tors, crng);
    double current_e = model(current);
    DockPose best = current;
    double best_e = current_e;

    constexpr double kTemperature = 1.2;  // Vina's Metropolis "temperature"
    for (int step = 0; step < steps_per_chain; ++step) {
      DockPose candidate = current;
      candidate.mutate_one(2.0, 0.5, 1.0, crng);
      double cand_e = 0.0;
      candidate = solis_wets(candidate, model, crng, 40, cand_e, 0.5);
      const double delta = cand_e - current_e;
      if (delta < 0.0 || crng.chance(std::exp(-delta / kTemperature))) {
        current = candidate;
        current_e = cand_e;
        if (current_e < best_e) {
          best = current;
          best_e = current_e;
        }
      }
    }
    // Final refinement of the chain's best.
    double refined_e = 0.0;
    best = solis_wets(best, model, crng, 120, refined_e, 0.3);
    result.conformations.push_back(
        score_conformation(model, best, input_coords, c));
    rescore_exactly(result.conformations.back(), model, receptor);
  }
  result.energy_evaluations = model.evaluations();

  cluster_conformations(result.conformations, 2.0);

  // Vina reports at most num_modes poses within energy_range of the best.
  std::sort(result.conformations.begin(), result.conformations.end(),
            [](const Conformation& a, const Conformation& b) { return a.feb < b.feb; });
  if (!result.conformations.empty()) {
    const double cutoff = result.conformations.front().feb + config_.energy_range;
    std::erase_if(result.conformations, [cutoff](const Conformation& c) {
      return c.feb > cutoff;
    });
    if (static_cast<int>(result.conformations.size()) > config_.num_modes) {
      result.conformations.resize(static_cast<std::size_t>(config_.num_modes));
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

DockingResult redock(const mol::PreparedReceptor& receptor,
                     const mol::PreparedLigand& ligand,
                     const Conformation& pose, Rng& rng) {
  constexpr double kBoxHalfExtent = 6.0;
  constexpr int kRefinementSteps = 600;
  SCIDOCK_REQUIRE(pose.coords.size() ==
                      static_cast<std::size_t>(ligand.molecule.atom_count()),
                  "redock: pose does not match the ligand");
  const mol::Vec3 center = mol::centroid(pose.coords);
  const GridBox box = GridBox::around(center, kBoxHalfExtent, 0.5);
  const GridMapSet maps = ligand_maps(receptor.molecule, ligand.molecule, box,
                                      ScoringFunction::Vina);
  VinaEnergyModel model(maps, ligand);

  // Recover a pose parameterisation that lands on the docked coordinates:
  // start from the rigid translation that moves the reference root centre
  // onto the pose centroid, then let the local search absorb orientation
  // and torsions. (The exact parameters are unknown once only coordinates
  // remain, e.g. after reading an _out.pdbqt back in.)
  DockPose start;
  start.rigid.translation = center - model.reference_center();
  start.torsions.assign(
      static_cast<std::size_t>(ligand.torsions.torsion_count()), 0.0);
  double energy = 0.0;
  DockPose refined = solis_wets(start, model, rng, kRefinementSteps, energy, 0.8);

  DockingResult result;
  result.receptor_name = receptor.molecule.name();
  result.ligand_name = ligand.molecule.name();
  result.engine_name = "Vina-redock";
  result.conformations.push_back(
      score_conformation(model, refined, pose.coords));
  rescore_exactly(result.conformations.back(), model, receptor);
  result.energy_evaluations = model.evaluations();
  return result;
}

}  // namespace scidock::dock
