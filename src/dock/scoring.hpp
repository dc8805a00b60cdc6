#pragma once

/// \file scoring.hpp
/// The two empirical scoring functions: AutoDock 4's free-energy model
/// (Huey et al. 2007 weights) and Vina's (Trott & Olson 2010), plus the
/// receptor neighbour list AutoGrid's map sweep uses: a dense cell array
/// answering point queries and the per-row-run candidate lists the sweep
/// tests its points against.

#include <cmath>
#include <utility>
#include <vector>

#include "mol/atom_typing.hpp"
#include "mol/geometry.hpp"
#include "mol/molecule.hpp"
#include "mol/torsion.hpp"

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
/// map sets. Cells are a dense array over the atoms' bounding box, each
/// holding its atoms in index order; the cell edge equals the query
/// cutoff, so a 27-cell scan is sufficient. (A receptor spanning more
/// than 2^20 cells at that edge gets a doubled edge until it fits, so
/// memory stays bounded on any input.) Atoms with a non-finite
/// coordinate are within the cutoff of nothing and are left out.
class NeighborList {
 public:
  NeighborList(const mol::Molecule& receptor, double cutoff);

  double cutoff() const { return cutoff_; }

  /// Invoke `fn(atom_index, distance_sq)` for every receptor atom within
  /// the cutoff of `p`: the 27 cells around p's cell in (x, y, z)
  /// lexicographic order, each cell's atoms in index order.
  template <typename F>
  void for_each_within(const mol::Vec3& p, F&& fn) const {
    for_each_candidate(p, [&](int idx) {
      const double d2 =
          mol::distance_sq(positions_[static_cast<std::size_t>(idx)], p);
      if (d2 <= cutoff_sq_) fn(idx, d2);
    });
  }

  /// The cell of coordinate `v` along one axis (floor(v / edge), as a
  /// double so any finite or non-finite input is safe). Points whose
  /// three axis cells agree share a cell.
  double axis_cell(double v) const { return std::floor(v / edge_); }

  /// Replace `out` with the atoms for_each_within reports for some point
  /// of the x-row segment {(x, p.y, p.z) : p.x <= x <= x_end}, in its
  /// order: the atoms of the 27 cells around the segment's cell that lie
  /// within the cutoff of the segment. Every point of the segment must
  /// share one cell (equal axis_cell(x)). For each such point p',
  /// for_each_within(p', fn) reports exactly the atoms of `out` with
  /// distance_sq <= cutoff², in the order of `out`: the segment distance
  /// is computed the way distance_sq is, so rounding never puts it above
  /// a point's distance.
  void segment_candidates(const mol::Vec3& p, double x_end,
                          std::vector<int>& out) const;

  const mol::Vec3& position(int idx) const {
    return positions_[static_cast<std::size_t>(idx)];
  }
  int atom_count() const { return static_cast<int>(positions_.size()); }

 private:
  /// Invoke `fn(atom_index)` for every atom of the 27 cells around p's.
  template <typename F>
  void for_each_candidate(const mol::Vec3& p, F&& fn) const {
    int lo[3], hi[3];
    if (!cell_range(p, lo, hi)) return;
    for (int cx = lo[0]; cx <= hi[0]; ++cx)
      for (int cy = lo[1]; cy <= hi[1]; ++cy)
        for (int cz = lo[2]; cz <= hi[2]; ++cz) {
          const std::size_t c = static_cast<std::size_t>(
              (cx * dims_[1] + cy) * dims_[2] + cz);
          for (int k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
            fn(cell_atoms_[static_cast<std::size_t>(k)]);
          }
        }
  }

  /// Dense-array cell bounds [lo, hi] per axis of the 27 cells around p's
  /// cell, clipped to the array; false when the clip is empty.
  bool cell_range(const mol::Vec3& p, int lo[3], int hi[3]) const;

  double cutoff_;
  double cutoff_sq_;
  double edge_;                  ///< cell edge, Å (>= cutoff_)
  std::vector<mol::Vec3> positions_;
  double origin_cell_[3] = {0, 0, 0};  ///< axis_cell of the array's first cell
  int dims_[3] = {0, 0, 0};
  std::vector<int> cell_start_;  ///< CSR offsets, one past the last cell
  std::vector<int> cell_atoms_;  ///< atom indices, by cell, ascending
};

/// Ligand intramolecular pair list: atom pairs separated by >= 3 bonds
/// whose distance a torsion of `tree` can change, i.e. that do not share
/// one of its rigid pieces (TorsionTree::same_rigid_piece). A pair within
/// a piece adds a constant to every pose's energy, so AutoDock 4's
/// `weedbonds` and Vina's pair list leave it out as well.
std::vector<std::pair<int, int>> intramolecular_pairs(const mol::Molecule& ligand,
                                                      const mol::TorsionTree& tree);

}  // namespace scidock::dock
