#pragma once

/// \file io_pdb.hpp
/// RCSB PDB reader/writer (ATOM/HETATM/TER/END records). Receptors in the
/// Table 2 dataset enter the workflow in this format.

#include <string>
#include <string_view>

#include "mol/molecule.hpp"

namespace scidock::mol {

/// Parse PDB text. Bonds are inferred from geometry afterwards (PDB
/// carries CONECT only for hetero groups).
Molecule read_pdb(std::string_view text, std::string_view name = "");

/// Serialise to PDB text (ATOM/HETATM + TER + END).
std::string write_pdb(const Molecule& m);

}  // namespace scidock::mol
