#pragma once

/// \file prepare.hpp
/// Docking preparation — the C++ equivalent of MGLTools'
/// prepare_ligand4.py (SciDock activity 2) and prepare_receptor4.py
/// (activity 3): perceive chemistry, assign Gasteiger charges and AutoDock
/// types, build the torsion tree, and emit PDBQT.

#include <string>

#include "mol/io_pdbqt.hpp"
#include "mol/molecule.hpp"
#include "mol/torsion.hpp"

namespace scidock::mol {

struct PreparedLigand {
  Molecule molecule;
  TorsionTree torsions;
  std::string pdbqt;   ///< serialised flexible-ligand PDBQT
};

struct PreparedReceptor {
  Molecule molecule;
  std::string pdbqt;   ///< serialised rigid-receptor PDBQT
};

/// Prepare a small-molecule ligand for docking. Throws ActivityError when
/// the ligand contains atoms the force field cannot parameterise.
PreparedLigand prepare_ligand(Molecule ligand);

/// Prepare a receptor: strip waters, assign charges/types, emit rigid
/// PDBQT. Throws ActivityError on unparameterised atoms (e.g. Hg): the
/// paper found receptors containing Hg put the real preparation tools
/// into an infinite "looping state", so they are rejected up-front (the
/// routine the authors added to SciCumulus after diagnosing the hang via
/// provenance queries).
PreparedReceptor prepare_receptor(Molecule receptor);

/// A prepared receptor as the activities after preparation read it back
/// from its PDBQT text: bonds inferred from geometry, the written
/// AutoDock types and charges kept.
PreparedReceptor read_prepared_receptor(std::string pdbqt);

}  // namespace scidock::mol
