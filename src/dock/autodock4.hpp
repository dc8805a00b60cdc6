#pragma once

/// \file autodock4.hpp
/// AutoDock 4 analog: Lamarckian genetic algorithm over precomputed grid
/// maps (Morris et al. 1998). Each GA run evolves a population of poses;
/// a fraction of each generation additionally undergoes Solis-Wets local
/// search whose result is written back into the genome (the "Lamarckian"
/// step). Results are RMSD-clustered as in the real .dlg output.

#include "dock/dpf.hpp"
#include "dock/engine.hpp"
#include "dock/grid.hpp"

namespace scidock::dock {

class Autodock4Engine {
 public:
  explicit Autodock4Engine(DockingParameterFile params = {});

  std::string name() const { return "AutoDock4"; }

  /// Computes grid maps internally (activity 5) and then runs the LGA.
  DockingResult dock(const mol::PreparedReceptor& receptor,
                     const mol::PreparedLigand& ligand, const GridBox& box,
                     Rng& rng);

  /// Dock against maps that activity 5 already produced (the real SciDock
  /// data flow, where AutoGrid output is staged on the shared FS).
  DockingResult dock_with_maps(const GridMapSet& maps,
                               const mol::PreparedLigand& ligand, Rng& rng);

  const DockingParameterFile& params() const { return params_; }

 private:
  DockingParameterFile params_;
};

}  // namespace scidock::dock
