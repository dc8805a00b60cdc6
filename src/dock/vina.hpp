#pragma once

/// \file vina.hpp
/// AutoDock Vina analog (Trott & Olson 2010): iterated-local-search
/// Monte Carlo with Metropolis acceptance and Solis-Wets refinement,
/// scored by the Vina empirical function on per-type grid maps (the grid
/// cache of Vina 1.1.2). The reported modes are rescored exactly against
/// every receptor atom, as Vina 1.1.2 does. Independent chains
/// ("exhaustiveness") run one after another inside the activation;
/// parallelism comes from the executor running many pairs.

#include "dock/dpf.hpp"
#include "dock/engine.hpp"

namespace scidock::dock {

class VinaEngine {
 public:
  explicit VinaEngine(VinaConfig config = {});

  std::string name() const { return "Vina"; }

  /// Computes the Vina map set over `box` (activity 5), then docks on it.
  DockingResult dock(const mol::PreparedReceptor& receptor,
                     const mol::PreparedLigand& ligand, const GridBox& box,
                     Rng& rng);

  /// Dock on a Vina map set that activity 5 already produced, searching in
  /// its box. `receptor` is read only to rescore the reported modes.
  DockingResult dock_with_maps(const mol::PreparedReceptor& receptor,
                               const GridMapSet& maps,
                               const mol::PreparedLigand& ligand, Rng& rng);

  const VinaConfig& config() const { return config_; }

  /// Monte-Carlo steps per chain; exposed for tests/benches that need
  /// fast runs.
  int steps_per_chain = 200;

 private:
  VinaConfig config_;
};

/// Redocking refinement (paper SS V.D: top interactions "should be refined
/// and reinforced using alternative approaches, such as ... redocking"):
/// restart the search from a previously docked pose inside a tight box
/// around it (6 Å half-extent) with an intensified local search (600
/// Solis-Wets steps). Only the pose's coordinates are needed (e.g. read
/// back from an `_out.pdbqt`): the search restarts from the pose's
/// centroid and re-derives orientation and torsions, so the refined FEB
/// can land on either side of the screening value — a hit that survives
/// refinement is "reinforced" in the paper's sense.
DockingResult redock(const mol::PreparedReceptor& receptor,
                     const mol::PreparedLigand& ligand,
                     const Conformation& pose, Rng& rng);

}  // namespace scidock::dock
