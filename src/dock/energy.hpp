#pragma once

/// \file energy.hpp
/// Energy models binding a (receptor, ligand) pair to a scalar objective
/// over DockPose. Both engines score through the precomputed grid maps of
/// their own scoring function (AutoGrid, autogrid.hpp); Vina also rescores
/// its reported modes exactly against every receptor atom.

#include <memory>
#include <vector>

#include "dock/autogrid.hpp"
#include "dock/conformation.hpp"
#include "dock/energy_lut.hpp"
#include "dock/grid.hpp"
#include "dock/scoring.hpp"
#include "mol/prepare.hpp"

namespace scidock::dock {

/// AD4 grid-based objective. Holds references: the maps and ligand must
/// outlive the model.
class Ad4EnergyModel {
 public:
  Ad4EnergyModel(const GridMapSet& maps, const mol::PreparedLigand& ligand,
                 Ad4Weights weights = {});

  /// Receptor-ligand energy of explicit coordinates (map interpolation).
  double intermolecular(const std::vector<mol::Vec3>& coords) const;
  /// Ligand internal energy (pairwise, torsion-dependent).
  double intramolecular(const std::vector<mol::Vec3>& coords) const;

  /// Objective on a pose: intermolecular + intramolecular of
  /// coords_for(pose), computed into a model-owned buffer. Counts one
  /// energy evaluation; a model is used by one thread at a time.
  double operator()(const DockPose& pose) const;

  /// Reported FEB: best intermolecular + torsional entropy penalty
  /// (AD4's DeltaG = inter + tors * N_tors; intra cancels in the bound/
  /// unbound difference under the rigid-receptor approximation).
  double feb(double inter) const;

  std::vector<mol::Vec3> coords_for(const DockPose& pose) const;
  long long evaluations() const { return evaluations_; }
  const mol::Vec3& reference_center() const { return reference_center_; }

 private:
  /// Per-atom channel pointers and charge/solvation factors, precomputed
  /// once so the fused inner loop reads three maps through one
  /// TrilinearSampler without per-evaluation type lookups.
  struct AtomChannels {
    const GridMap* affinity;
    double charge;  ///< partial charge (electrostatic map factor)
    double solv;    ///< solpar + kQasp * |q| (desolvation map factor)
  };
  /// Intramolecular pair with everything distance-independent hoisted.
  struct IntraPair {
    int i, j;
    mol::AdType ti, tj;
    double qi, qj;
    double qq;    ///< qi * qj (Coulomb factor)
    double solv;  ///< symmetric solvation cross term
    const double* row;  ///< the pair's vdW/H-bond LUT channel
  };

  const GridMapSet& maps_;
  const mol::PreparedLigand& ligand_;
  Ad4Weights weights_;
  std::shared_ptr<const Ad4PairTables> tables_;
  std::vector<mol::Vec3> reference_coords_;
  /// TorsionTree::root_center of the reference coordinates.
  mol::Vec3 rotation_center_{};
  mol::Vec3 reference_center_{};
  std::vector<AtomChannels> channels_;
  std::vector<IntraPair> intra_pairs_;
  /// operator()'s piece frames and coordinates, reused across evaluations.
  mutable std::vector<mol::RigidFrame> frames_;
  mutable std::vector<mol::Vec3> coords_;
  mutable long long evaluations_ = 0;
};

/// Vina grid-based objective: one trilinear read per ligand atom from a
/// Vina map set (ScoringFunction::Vina). Holds references: the maps and
/// ligand must outlive the model.
class VinaEnergyModel {
 public:
  VinaEnergyModel(const GridMapSet& maps, const mol::PreparedLigand& ligand,
                  VinaWeights weights = {});

  double intermolecular(const std::vector<mol::Vec3>& coords) const;
  double intramolecular(const std::vector<mol::Vec3>& coords) const;
  double operator()(const DockPose& pose) const;

  /// Intermolecular energy of `coords` without the maps: the Vina pair
  /// term summed over every atom of `receptor`, with no box term. Vina
  /// 1.1.2 searches on its grid cache and re-evaluates the modes it
  /// reports this way; it does not count as an energy evaluation.
  double exact_intermolecular(const mol::Molecule& receptor,
                              const std::vector<mol::Vec3>& coords) const;

  /// Vina's reported affinity from the best intermolecular energy.
  double feb(double inter) const;

  std::vector<mol::Vec3> coords_for(const DockPose& pose) const;
  long long evaluations() const { return evaluations_; }
  const mol::Vec3& reference_center() const { return reference_center_; }

 private:
  /// Intramolecular pair with the LUT channel hoisted: the type pair is
  /// fixed per pair, so the row pointer is resolved once at construction.
  struct VinaIntraPair {
    int i, j;
    const double* row;
  };

  const GridMapSet& maps_;
  const mol::PreparedLigand& ligand_;
  VinaWeights weights_;
  std::shared_ptr<const VinaPairTables> tables_;
  std::vector<mol::Vec3> reference_coords_;
  /// TorsionTree::root_center of the reference coordinates.
  mol::Vec3 rotation_center_{};
  mol::Vec3 reference_center_{};
  /// Per-ligand-atom map; nullptr for skip types (hydrogens), whose Vina
  /// term is zero everywhere.
  std::vector<const GridMap*> atom_maps_;
  /// Skip-type pairs (hydrogens) contribute zero at every distance, so
  /// they are pruned at construction rather than tested per evaluation.
  std::vector<VinaIntraPair> intra_pairs_;
  /// operator()'s piece frames and coordinates, reused across evaluations.
  mutable std::vector<mol::RigidFrame> frames_;
  mutable std::vector<mol::Vec3> coords_;
  mutable long long evaluations_ = 0;
};

}  // namespace scidock::dock
