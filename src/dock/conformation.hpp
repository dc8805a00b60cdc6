#pragma once

/// \file conformation.hpp
/// The search-space point both engines optimise: a rigid-body pose plus
/// one angle per rotatable bond, and the mutation/sampling moves on it.

#include <utility>
#include <vector>

#include "dock/grid.hpp"
#include "mol/geometry.hpp"
#include "mol/torsion.hpp"
#include "util/rng.hpp"

namespace scidock::dock {

struct DockPose {
  mol::Pose rigid;
  std::vector<double> torsions;  ///< radians, one per rotatable bond

  /// Uniformly random pose: root centre placed uniformly in the box,
  /// orientation uniform on SO(3), torsions uniform in (-pi, pi].
  /// `reference_center` is the root-fragment centroid of the reference
  /// conformation (the point the rigid translation moves).
  static DockPose random(const GridBox& box, const mol::Vec3& reference_center,
                         int torsion_count, Rng& rng);

  /// Gaussian perturbation of every degree of freedom.
  void mutate(double translate_sigma, double rotate_sigma,
              double torsion_sigma, Rng& rng);

  /// Perturb exactly one randomly chosen degree of freedom (the classic
  /// Vina Monte-Carlo move).
  void mutate_one(double translate_sigma, double rotate_sigma,
                  double torsion_sigma, Rng& rng);

  /// Uniform crossover with `other` (AD4's genetic operator): each gene
  /// (translation axis, orientation, each torsion) picked from one parent.
  DockPose crossover(const DockPose& other, Rng& rng) const;
};

/// Solis-Wets style local search: adaptive-step hill climbing over the
/// pose. `energy` maps a DockPose to a scalar; lower is better. Returns
/// the improved pose and writes its energy to `out_energy`.
template <typename EnergyFn>
DockPose solis_wets(DockPose pose, const EnergyFn& energy, Rng& rng,
                    int max_iterations, double& out_energy,
                    double initial_rho = 1.0, double min_rho = 0.01) {
  double best = energy(pose);
  double rho = initial_rho;
  int successes = 0;
  int failures = 0;
  // One trial reused across iterations: assigning `pose` to it copies the
  // torsions into its existing storage.
  DockPose trial = pose;
  for (int it = 0; it < max_iterations && rho > min_rho; ++it) {
    trial = pose;
    trial.mutate(0.3 * rho, 0.25 * rho, 0.4 * rho, rng);
    const double e = energy(trial);
    if (e < best) {
      best = e;
      std::swap(pose, trial);
      ++successes;
      failures = 0;
    } else {
      ++failures;
      successes = 0;
    }
    // Classic Solis-Wets step adaptation thresholds.
    if (successes >= 4) { rho *= 2.0; successes = 0; }
    if (failures >= 4) { rho *= 0.5; failures = 0; }
  }
  out_energy = best;
  return pose;
}

}  // namespace scidock::dock
