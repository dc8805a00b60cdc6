#pragma once

/// \file generator.hpp
/// Synthetic structure generation — the substitution for RCSB-PDB.
/// Every structure is a deterministic function of its Table 2 code, so
/// the full 238 × 42 dataset reproduces bit-for-bit across runs and
/// machines. Receptors are compact poly-residue globules with a carved
/// binding cavity; ligands are branched small molecules with rings and
/// rotatable bonds. Both are emitted in the real file formats (PDB / SDF)
/// the workflow's first activities parse.

#include <string>
#include <string_view>

#include "mol/molecule.hpp"
#include "vfs/vfs.hpp"
#include "wf/relation.hpp"

namespace scidock::data {

struct GeneratorOptions {
  /// Residue-count range for receptors (size drawn per code). The paper's
  /// receptors span small to "large and flexible"; the docking filter
  /// splits on this.
  int min_residues = 24;
  int max_residues = 96;
  /// Heavy-atom range for ligands.
  int min_ligand_atoms = 8;
  int max_ligand_atoms = 28;
  /// Fraction of receptors that carry an Hg atom (the paper's pathologic
  /// structures that hang preparation). Applied deterministically by code
  /// hash, so the same receptors are always affected.
  double hg_fraction = 0.03;
};

/// Binding-cavity radius carved at the receptor centre, Å.
inline constexpr double kCavityRadius = 6.0;

/// Deterministic receptor for a PDB code. The molecule has residues with
/// backbone + side-chain atoms, occasional HETATM waters, and (for the
/// hg-flagged subset) a mercury ion.
mol::Molecule make_receptor(std::string_view code,
                            const GeneratorOptions& opts = {});

/// Deterministic ligand for a het code.
mol::Molecule make_ligand(std::string_view code,
                          const GeneratorOptions& opts = {});

/// Whether this receptor code belongs to the deterministic Hg subset.
bool receptor_has_hg(std::string_view code, const GeneratorOptions& opts = {});

/// Residue count the generator will use for a code (the "size" the
/// docking filter routes on, known without building the structure).
int receptor_residue_count(std::string_view code,
                           const GeneratorOptions& opts = {});

/// Receptors whose residue count exceeds this go to Vina (Scenario II).
int vina_size_threshold(const GeneratorOptions& opts = {});

/// Write `receptors` (PDB) and `ligands` (SDF) into the shared FS under
/// `<expdir>/input/`; returns the number of files staged.
int stage_dataset(vfs::SharedFileSystem& fs, std::string_view expdir,
                  const std::vector<std::string>& receptors,
                  const std::vector<std::string>& ligands,
                  const GeneratorOptions& opts = {});

/// Build the workflow input relation for the cross product of the first
/// `max_pairs` (receptor, ligand) combinations (0 = all). Fields:
///   pair, receptor, ligand, receptor_file, ligand_file, residues,
///   engine (ad4|vina, precomputed routing), workload (duration scale),
///   hg (0|1).
wf::Relation build_pairs_relation(const std::vector<std::string>& receptors,
                                  const std::vector<std::string>& ligands,
                                  std::string_view expdir,
                                  std::size_t max_pairs = 0,
                                  const GeneratorOptions& opts = {});

}  // namespace scidock::data
