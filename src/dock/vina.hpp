#pragma once

/// \file vina.hpp
/// AutoDock Vina analog (Trott & Olson 2010): iterated-local-search
/// Monte Carlo with Metropolis acceptance and Solis-Wets refinement,
/// scored by the Vina empirical function via direct pairwise evaluation.
/// Independent chains ("exhaustiveness") run one after another inside the
/// activation; parallelism comes from the executor running many pairs.

#include "dock/dpf.hpp"
#include "dock/engine.hpp"

namespace scidock::dock {

class VinaEngine : public DockingEngine {
 public:
  explicit VinaEngine(VinaConfig config = {});

  std::string name() const override { return "Vina"; }

  DockingResult dock(const mol::PreparedReceptor& receptor,
                     const mol::PreparedLigand& ligand, const GridBox& box,
                     Rng& rng) override;

  const VinaConfig& config() const { return config_; }

  /// Monte-Carlo steps per chain; exposed for tests/benches that need
  /// fast runs.
  int steps_per_chain = 200;

 private:
  VinaConfig config_;
};

/// Redocking refinement (paper SS V.D: top interactions "should be refined
/// and reinforced using alternative approaches, such as ... redocking"):
/// restart the search from a previously docked pose inside a tighter box
/// around it, at higher local-search effort. Only the pose's coordinates
/// are needed (e.g. read back from an `_out.pdbqt`): the search restarts
/// from the pose's centroid and re-derives orientation and torsions, so
/// the refined FEB can land on either side of the screening value — a
/// hit that survives refinement is "reinforced" in the paper's sense.
DockingResult redock(const mol::PreparedReceptor& receptor,
                     const mol::PreparedLigand& ligand,
                     const Conformation& pose, Rng& rng,
                     double box_half_extent = 6.0, int refinement_steps = 400);

}  // namespace scidock::dock
