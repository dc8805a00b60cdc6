#include "dock/vina.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "dock/cluster.hpp"
#include "dock/energy.hpp"
#include "mol/molecule.hpp"
#include "util/error.hpp"

namespace scidock::dock {

VinaEngine::VinaEngine(VinaConfig config) : config_(std::move(config)) {}

DockingResult VinaEngine::dock(const mol::PreparedReceptor& receptor,
                               const mol::PreparedLigand& ligand,
                               const GridBox& box, Rng& rng) {
  SCIDOCK_REQUIRE(ligand.molecule.fully_parameterised(),
                  "Vina: ligand has unparameterised atoms");
  SCIDOCK_REQUIRE(receptor.molecule.fully_parameterised(),
                  "Vina: receptor has unparameterised atoms");
  const auto t0 = std::chrono::steady_clock::now();

  VinaEnergyModel model(receptor, ligand, box);
  const std::vector<mol::Vec3> input_coords = ligand.molecule.coordinates();
  const int n_tors = ligand.torsions.torsion_count();

  struct ChainResult {
    DockPose pose;
    double energy = 0.0;
    long long evaluations = 0;
  };
  std::vector<ChainResult> chains(static_cast<std::size_t>(config_.exhaustiveness));

  // Each chain gets a forked RNG, so a chain's result does not depend on
  // how many chains ran before it.
  std::vector<Rng> chain_rngs;
  chain_rngs.reserve(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    chain_rngs.push_back(rng.fork("vina-chain-" + std::to_string(c)));
  }

  auto run_chain = [&](std::size_t c) {
    Rng& crng = chain_rngs[c];
    // Each chain evaluates through its own model instance, so its
    // evaluation count is its own.
    VinaEnergyModel chain_model(receptor, ligand, box);
    DockPose current =
        DockPose::random(box, chain_model.reference_center(), n_tors, crng);
    double current_e = chain_model(current);
    DockPose best = current;
    double best_e = current_e;

    constexpr double kTemperature = 1.2;  // Vina's Metropolis "temperature"
    for (int step = 0; step < steps_per_chain; ++step) {
      DockPose candidate = current;
      candidate.mutate_one(2.0, 0.5, 1.0, crng);
      double cand_e = 0.0;
      candidate = solis_wets(candidate, chain_model, crng, 40, cand_e, 0.5);
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
    best = solis_wets(best, chain_model, crng, 120, refined_e, 0.3);
    chains[c] = ChainResult{std::move(best), refined_e, chain_model.evaluations()};
  };

  for (std::size_t c = 0; c < chains.size(); ++c) run_chain(c);

  DockingResult result;
  result.receptor_name = receptor.molecule.name();
  result.ligand_name = ligand.molecule.name();
  result.engine_name = name();
  // Rescore every chain's best in one batched pass (run index = chain
  // index, matching the order the chains were launched in).
  std::vector<DockPose> best_poses;
  best_poses.reserve(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    best_poses.push_back(chains[c].pose);
    result.energy_evaluations += chains[c].evaluations;
  }
  append_batch_conformations(model, best_poses, input_coords,
                             result.conformations);

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
                     const Conformation& pose, Rng& rng,
                     double box_half_extent, int refinement_steps) {
  SCIDOCK_REQUIRE(pose.coords.size() ==
                      static_cast<std::size_t>(ligand.molecule.atom_count()),
                  "redock: pose does not match the ligand");
  const mol::Vec3 center = mol::centroid(pose.coords);
  const GridBox box = GridBox::around(center, box_half_extent, 0.5);
  VinaEnergyModel model(receptor, ligand, box);

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
  DockPose refined = solis_wets(start, model, rng, refinement_steps, energy, 0.8);

  DockingResult result;
  result.receptor_name = receptor.molecule.name();
  result.ligand_name = ligand.molecule.name();
  result.engine_name = "Vina-redock";
  Conformation out;
  out.coords = model.coords_for(refined);
  out.intermolecular = model.intermolecular(out.coords);
  out.intramolecular = model.intramolecular(out.coords);
  out.feb = model.feb(out.intermolecular);
  out.rmsd_from_input = mol::rmsd(out.coords, pose.coords);
  result.conformations.push_back(std::move(out));
  result.energy_evaluations = model.evaluations();
  return result;
}

}  // namespace scidock::dock
