#pragma once

/// \file scoring.hpp
/// The two empirical scoring functions: AutoDock 4's free-energy model
/// (Huey et al. 2007 weights) and Vina's (Trott & Olson 2010), plus the
/// receptor neighbour list AutoGrid's map sweep uses.

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mol/atom_typing.hpp"
#include "mol/geometry.hpp"
#include "mol/molecule.hpp"

namespace scidock::dock {

/// Distance-dependent dielectric of Mehler & Solmajer (AD4's electrostatic
/// screening model).
double mehler_solmajer_dielectric(double r);

// ---------------------------------------------------------------------
// AutoDock 4 terms
// ---------------------------------------------------------------------

/// AD4.1 free-energy weights.
struct Ad4Weights {
  double vdw = 0.1662;
  double hbond = 0.1209;
  double estat = 0.1406;
  double desolv = 0.1322;
  double tors = 0.2983;  ///< kcal/mol per torsional degree of freedom
};

/// Pairwise AD4 interaction between two typed atoms at distance r (Å):
/// LJ 12-6 (or 12-10 hydrogen bond), screened Coulomb and Gaussian-weighted
/// desolvation. Charges in e units. Energies kcal/mol, pre-weighting
/// applied (i.e. this returns the weighted sum the engine adds up).
double ad4_pair_energy(mol::AdType ti, double qi, mol::AdType tj, double qj,
                       double r, const Ad4Weights& w = {});

/// Smoothed/clamped LJ-like well used for both the pairwise and grid paths;
/// exposed for tests.
double ad4_vdw_hbond(mol::AdType ti, mol::AdType tj, double r,
                     const Ad4Weights& w);

// ---------------------------------------------------------------------
// Vina terms
// ---------------------------------------------------------------------

struct VinaWeights {
  double gauss1 = -0.035579;
  double gauss2 = -0.005156;
  double repulsion = 0.840245;
  double hydrophobic = -0.035069;
  double hbond = -0.587439;
  double rot = 0.05846;  ///< torsion-count penalty in the FEB conversion
};

/// Vina pairwise term on the *surface distance*
/// d = r - (radius_i + radius_j); atoms with `skip` (hydrogens) contribute 0.
double vina_pair_energy(mol::AdType ti, mol::AdType tj, double r,
                        const VinaWeights& w = {});

/// Vina's conversion from raw intermolecular energy to reported affinity:
/// E / (1 + w_rot * N_rot).
double vina_affinity(double intermolecular_energy, int n_rot,
                     const VinaWeights& w = {});

// ---------------------------------------------------------------------
// Receptor neighbour list
// ---------------------------------------------------------------------

/// Immutable cell list over receptor atoms supporting fixed-radius
/// neighbour queries, used by AutoGrid map generation for both engines'
/// map sets. Cell edge equals the query cutoff so a 27-cell scan is
/// sufficient.
class NeighborList {
 public:
  NeighborList(const mol::Molecule& receptor, double cutoff);

  double cutoff() const { return cutoff_; }

  /// Invoke `fn(atom_index, distance_sq)` for every receptor atom within
  /// the cutoff of `p`.
  template <typename F>
  void for_each_within(const mol::Vec3& p, F&& fn) const {
    const CellKey c = key_of(p);
    for (long long dx = -1; dx <= 1; ++dx)
      for (long long dy = -1; dy <= 1; ++dy)
        for (long long dz = -1; dz <= 1; ++dz) {
          const auto it = cells_.find(pack(c.x + dx, c.y + dy, c.z + dz));
          if (it == cells_.end()) continue;
          for (int idx : it->second) {
            const double d2 = mol::distance_sq(positions_[static_cast<std::size_t>(idx)], p);
            if (d2 <= cutoff_sq_) fn(idx, d2);
          }
        }
  }

  int atom_count() const { return static_cast<int>(positions_.size()); }

 private:
  struct CellKey {
    long long x, y, z;
  };
  CellKey key_of(const mol::Vec3& p) const;
  static std::uint64_t pack(long long x, long long y, long long z);

  double cutoff_;
  double cutoff_sq_;
  std::vector<mol::Vec3> positions_;
  std::unordered_map<std::uint64_t, std::vector<int>> cells_;
};

/// Ligand intramolecular pair list: atom pairs separated by >= 3 bonds,
/// whose internal energy changes with torsion angles.
std::vector<std::pair<int, int>> intramolecular_pairs(const mol::Molecule& ligand);

}  // namespace scidock::dock
