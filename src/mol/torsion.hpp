#pragma once

/// \file torsion.hpp
/// Rotatable-bond detection and the torsion tree ("BRANCH tree") that
/// PDBQT files encode and that both docking engines search over.
///
/// A ligand conformation is parameterised as: a rigid root fragment posed
/// by (rotation, translation) plus one dihedral angle per rotatable bond.
/// apply() maps a parameter vector to concrete atom coordinates.
///
/// The tree splits the atoms into rigid pieces: piece 0 is the root, and
/// piece b + 1 belongs to branch b. An atom's piece is the deepest branch
/// whose moving_atoms hold it, or the root if no branch moves it. A
/// conformation gives each piece one rigid frame, and every atom of a
/// piece moves with its frame.

#include <vector>

#include "mol/geometry.hpp"
#include "mol/molecule.hpp"

namespace scidock::mol {

/// One rotatable bond: rotating `moving_atoms` about the axis
/// atom_from -> atom_to. Branches are ordered so that a parent branch's
/// rotation is applied before its children (preorder).
struct TorsionBranch {
  int atom_from = 0;              ///< fixed-side pivot atom index
  int atom_to = 0;                ///< moving-side pivot atom index
  std::vector<int> moving_atoms;  ///< atoms displaced by this torsion
  int parent = -1;                ///< index of parent branch, -1 = root
};

class TorsionTree {
 public:
  /// Build from a perceived molecule. Rotatable bonds are acyclic single
  /// bonds whose removal leaves >= `min_fragment` heavy atoms on each side
  /// (terminal bonds like -CH3 are not worth a degree of freedom in AD4's
  /// default TORSDOF counting; min_fragment=2 reproduces that).
  static TorsionTree build(const Molecule& m, int min_fragment = 2);

  /// Assemble directly from branch records of a molecule with
  /// `atom_count` atoms (used by the PDBQT reader, which recovers the tree
  /// from ROOT/BRANCH markers). A branch's parent must precede it.
  static TorsionTree from_branches(std::vector<TorsionBranch> branches,
                                   std::vector<int> root_atoms, int atom_count);

  int torsion_count() const { return static_cast<int>(branches_.size()); }
  const std::vector<TorsionBranch>& branches() const { return branches_; }
  const std::vector<int>& root_atoms() const { return root_atoms_; }

  /// Degrees of freedom of the full pose: 3 translation + 3 rotation +
  /// one per torsion (the "TORSDOF" of PDBQT).
  int degrees_of_freedom() const { return 6 + torsion_count(); }

  /// True when no torsion changes the distance between atoms i and j:
  /// they share a rigid piece, where a branch's piece also holds its two
  /// pivot atoms (both lie on its axis).
  bool same_rigid_piece(int i, int j) const;

  /// Produce coordinates from reference coordinates + pose + torsions.
  /// `torsion_angles` must have torsion_count() entries (radians).
  /// The rigid pose rotates about root_center(reference).
  std::vector<Vec3> apply(const std::vector<Vec3>& reference,
                          const Pose& pose,
                          const std::vector<double>& torsion_angles) const;

  /// The centroid of the root atoms' reference coordinates (the origin
  /// when the root is empty): the point the rigid pose rotates about.
  Vec3 root_center(const std::vector<Vec3>& reference) const;

  /// apply() into `out`, with `root_center` = root_center(reference)
  /// computed once by the caller. `frames` receives each piece's frame
  /// (index 0 for the root, b + 1 for branch b), and an atom's coordinates
  /// are its piece's frame applied to its reference position. The root
  /// frame is the pose rotation about `root_center` plus the translation;
  /// branch b's frame is its parent's frame after a rotation by
  /// torsion_angles[b] about the reference axis atom_from -> atom_to. The
  /// energy models evaluate through this with buffers they own, so an
  /// evaluation allocates nothing.
  void apply_into(const std::vector<Vec3>& reference, const Vec3& root_center,
                  const Pose& pose, const std::vector<double>& torsion_angles,
                  std::vector<RigidFrame>& frames,
                  std::vector<Vec3>& out) const;

 private:
  /// Checks the branch records and fills piece_ for `atom_count` atoms.
  void assign_pieces(int atom_count);

  std::vector<TorsionBranch> branches_;
  std::vector<int> root_atoms_;
  std::vector<int> piece_;  ///< per atom: 0 = root, b + 1 = branch b
};

}  // namespace scidock::mol
