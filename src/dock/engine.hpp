#pragma once

/// \file engine.hpp
/// Engine-neutral docking task and result types (SciDock activity 8).

#include <string>
#include <vector>

#include "dock/conformation.hpp"
#include "dock/grid.hpp"
#include "mol/geometry.hpp"
#include "mol/molecule.hpp"
#include "mol/prepare.hpp"
#include "util/rng.hpp"

namespace scidock::dock {

/// One scored conformation in a docking result.
struct Conformation {
  std::vector<mol::Vec3> coords;
  double feb = 0.0;             ///< reported free energy of binding, kcal/mol
  double intermolecular = 0.0;  ///< receptor-ligand component
  double intramolecular = 0.0;  ///< ligand internal component
  double rmsd_from_input = 0.0; ///< Å vs the input (reference) conformation
  int run = 0;                  ///< which independent run produced it
  int cluster = 0;              ///< RMSD-cluster index (0 = best cluster)
};

struct DockingResult {
  std::string receptor_name;
  std::string ligand_name;
  std::string engine_name;
  std::vector<Conformation> conformations;  ///< sorted best-FEB first
  long long energy_evaluations = 0;
  double wall_seconds = 0.0;

  bool empty() const { return conformations.empty(); }
  const Conformation& best() const;
  /// Favourable-interaction predicate used in Table 3: FEB < 0.
  bool favorable() const { return !empty() && best().feb < 0.0; }
  /// Mean FEB / RMSD over the reported conformations.
  double mean_feb() const;
  double mean_rmsd() const;
};

/// Score one pose for the report as the Conformation of `run`: its
/// coordinates, the inter/intra split, the FEB and the RMSD against
/// `input_coords`. Reporting path, not search path: it calls
/// intermolecular/intramolecular directly, so the model's evaluation count
/// does not move. `Model` is Ad4EnergyModel or VinaEnergyModel.
template <typename Model>
Conformation score_conformation(const Model& model, const DockPose& pose,
                                const std::vector<mol::Vec3>& input_coords,
                                int run = 0) {
  Conformation conf;
  conf.coords = model.coords_for(pose);
  conf.intermolecular = model.intermolecular(conf.coords);
  conf.intramolecular = model.intramolecular(conf.coords);
  conf.feb = model.feb(conf.intermolecular);
  conf.rmsd_from_input = mol::rmsd(conf.coords, input_coords);
  conf.run = run;
  return conf;
}

}  // namespace scidock::dock
