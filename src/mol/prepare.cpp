#include "mol/prepare.hpp"

#include <utility>

#include "mol/charges.hpp"
#include "util/error.hpp"

namespace scidock::mol {

namespace {

/// Remove crystallographic waters (HOH/WAT residues), which MGLTools'
/// receptor preparation strips by default.
Molecule strip_waters(const Molecule& in) {
  Molecule out{in.name()};
  std::vector<int> index_map(static_cast<std::size_t>(in.atom_count()), -1);
  for (int i = 0; i < in.atom_count(); ++i) {
    const Atom& a = in.atom(i);
    if (a.residue_name == "HOH" || a.residue_name == "WAT") continue;
    index_map[static_cast<std::size_t>(i)] = out.add_atom(a);
  }
  for (const Bond& b : in.bonds()) {
    const int na = index_map[static_cast<std::size_t>(b.a)];
    const int nb = index_map[static_cast<std::size_t>(b.b)];
    if (na >= 0 && nb >= 0) out.add_bond(na, nb, b.order);
  }
  return out;
}

}  // namespace

PreparedLigand prepare_ligand(Molecule ligand) {
  SCIDOCK_REQUIRE(ligand.atom_count() > 0, "empty ligand");
  ligand.perceive();
  if (!ligand.fully_parameterised()) {
    throw ActivityError("prepare_ligand: ligand '" + ligand.name() +
                        "' contains atoms without force-field parameters");
  }
  assign_gasteiger_charges(ligand);
  TorsionTree tree = TorsionTree::build(ligand);
  std::string pdbqt = write_pdbqt_ligand(ligand, tree);
  return PreparedLigand{std::move(ligand), std::move(tree), std::move(pdbqt)};
}

PreparedReceptor prepare_receptor(Molecule receptor) {
  SCIDOCK_REQUIRE(receptor.atom_count() > 0, "empty receptor");
  Molecule cleaned = strip_waters(receptor);
  SCIDOCK_REQUIRE(cleaned.atom_count() > 0, "receptor is all water");
  cleaned.perceive();
  if (!cleaned.fully_parameterised()) {
    throw ActivityError("prepare_receptor: receptor '" + cleaned.name() +
                        "' contains unparameterised atoms (e.g. Hg); the "
                        "real tools hang on these structures");
  }
  assign_gasteiger_charges(cleaned);
  std::string pdbqt = write_pdbqt_rigid(cleaned);
  return PreparedReceptor{std::move(cleaned), std::move(pdbqt)};
}

PreparedReceptor read_prepared_receptor(std::string pdbqt) {
  PdbqtModel model = read_pdbqt(pdbqt);
  model.molecule.infer_bonds_from_geometry();
  model.molecule.perceive(/*retype=*/false);
  return PreparedReceptor{std::move(model.molecule), std::move(pdbqt)};
}

}  // namespace scidock::mol
