#include "dock/autodock4.hpp"

#include <algorithm>
#include <chrono>

#include "dock/autogrid.hpp"
#include "dock/cluster.hpp"
#include "dock/energy.hpp"
#include "mol/molecule.hpp"
#include "util/error.hpp"

namespace scidock::dock {

Autodock4Engine::Autodock4Engine(DockingParameterFile params)
    : params_(std::move(params)) {}

DockingResult Autodock4Engine::dock(const mol::PreparedReceptor& receptor,
                                    const mol::PreparedLigand& ligand,
                                    const GridBox& box, Rng& rng) {
  SCIDOCK_REQUIRE(ligand.molecule.fully_parameterised(),
                  "AD4: ligand has unparameterised atoms");
  SCIDOCK_REQUIRE(receptor.molecule.fully_parameterised(),
                  "AD4: receptor has unparameterised atoms");
  const GridMapSet maps = ligand_maps(receptor.molecule, ligand.molecule, box,
                                      ScoringFunction::Ad4);
  DockingResult result = dock_with_maps(maps, ligand, rng);
  result.receptor_name = receptor.molecule.name();
  return result;
}

DockingResult Autodock4Engine::dock_with_maps(const GridMapSet& maps,
                                              const mol::PreparedLigand& ligand,
                                              Rng& rng) {
  const auto t0 = std::chrono::steady_clock::now();
  Ad4EnergyModel model(maps, ligand);
  const std::vector<mol::Vec3> input_coords = ligand.molecule.coordinates();
  const int n_tors = ligand.torsions.torsion_count();

  DockingResult result;
  result.ligand_name = ligand.molecule.name();
  result.engine_name = name();

  struct Individual {
    DockPose pose;
    double energy = 0.0;
  };

  for (int run = 0; run < params_.ga_runs; ++run) {
    // --- initial population ---
    std::vector<Individual> population;
    population.reserve(static_cast<std::size_t>(params_.ga_pop_size));
    for (int i = 0; i < params_.ga_pop_size; ++i) {
      DockPose pose =
          DockPose::random(maps.box, model.reference_center(), n_tors, rng);
      const double energy = model(pose);
      population.push_back({std::move(pose), energy});
    }

    const long long eval_budget = params_.ga_num_evals;
    const long long evals_at_start = model.evaluations();
    int generation = 0;
    while (generation < params_.ga_num_generations &&
           model.evaluations() - evals_at_start < eval_budget) {
      ++generation;
      std::sort(population.begin(), population.end(),
                [](const Individual& a, const Individual& b) {
                  return a.energy < b.energy;
                });

      // Elitism: the best individual survives unchanged.
      std::vector<Individual> next;
      next.reserve(population.size());
      next.push_back(population.front());

      // Binary-tournament selection + crossover + mutation.
      auto tournament = [&]() -> const Individual& {
        const auto a = rng.below(population.size());
        const auto b = rng.below(population.size());
        return population[a].energy < population[b].energy ? population[a]
                                                           : population[b];
      };
      while (next.size() < population.size()) {
        const Individual& pa = tournament();
        const Individual& pb = tournament();
        DockPose child = rng.chance(params_.ga_crossover_rate)
                             ? pa.pose.crossover(pb.pose, rng)
                             : pa.pose;
        if (rng.chance(params_.ga_mutation_rate * 10.0)) {
          child.mutate_one(1.0, 0.3, 0.5, rng);
        }
        const double energy = model(child);
        next.push_back({std::move(child), energy});
      }
      population = std::move(next);

      // Lamarckian step: local search on ~6% of the population (AD4's
      // ls_search_freq default), writing the result back to the genome.
      for (Individual& ind : population) {
        if (!rng.chance(0.06)) continue;
        double improved = 0.0;
        ind.pose = solis_wets(ind.pose, model, rng, params_.sw_max_its, improved);
        ind.energy = improved;
      }
    }

    auto best_it = std::min_element(
        population.begin(), population.end(),
        [](const Individual& a, const Individual& b) { return a.energy < b.energy; });
    // Final Lamarckian polish of the run winner (AD4 ends each run with an
    // intensified local search before reporting).
    double polished_energy = 0.0;
    best_it->pose = solis_wets(best_it->pose, model, rng,
                               params_.sw_max_its * 4, polished_energy, 0.5);
    result.conformations.push_back(
        score_conformation(model, best_it->pose, input_coords, run));
  }

  cluster_conformations(result.conformations, params_.rmstol);
  result.energy_evaluations = model.evaluations();
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return result;
}

}  // namespace scidock::dock
