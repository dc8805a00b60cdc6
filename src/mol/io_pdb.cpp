#include "mol/io_pdb.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::mol {

namespace {

const char* kStandardResidues[] = {
    "ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS", "ILE",
    "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP", "TYR", "VAL"};

bool is_standard_residue(std::string_view res) {
  for (const char* r : kStandardResidues) {
    if (res == r) return true;
  }
  return false;
}

}  // namespace

Molecule read_pdb(std::string_view text, std::string_view name) {
  Molecule m{std::string(name)};
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    const std::string_view lv = line;
    const std::string_view record = fixed_columns(lv, 0, 6);
    if (record == "HEADER" && name.empty()) {
      const std::string_view id = fixed_columns(lv, 62, 4);
      if (!id.empty()) m.set_name(std::string(id));
      continue;
    }
    if (record != "ATOM" && record != "HETATM") continue;
    if (lv.size() < 54) {
      throw ParseError("PDB", "truncated coordinate record: " + line);
    }
    Atom atom;
    atom.serial = static_cast<int>(parse_int(fixed_columns(lv, 6, 5), "PDB serial"));
    atom.name = std::string(fixed_columns(lv, 12, 4));
    atom.residue_name = std::string(fixed_columns(lv, 17, 3));
    const std::string_view chain = fixed_columns(lv, 21, 1);
    atom.chain_id = chain.empty() ? 'A' : chain[0];
    const std::string_view seq = fixed_columns(lv, 22, 4);
    atom.residue_seq = seq.empty() ? 0 : static_cast<int>(parse_int(seq, "PDB resSeq"));
    atom.pos.x = parse_finite_double(fixed_columns(lv, 30, 8), "PDB x");
    atom.pos.y = parse_finite_double(fixed_columns(lv, 38, 8), "PDB y");
    atom.pos.z = parse_finite_double(fixed_columns(lv, 46, 8), "PDB z");
    atom.hetero = (record == "HETATM");

    const std::string_view elem_col = fixed_columns(lv, 76, 2);
    if (!elem_col.empty()) {
      if (auto e = element_from_symbol(elem_col)) atom.element = *e;
    }
    if (atom.element == Element::Unknown) {
      atom.element = element_from_pdb_atom_name(
          atom.name, is_standard_residue(atom.residue_name));
    }
    m.add_atom(std::move(atom));
  }
  if (m.atom_count() == 0) {
    throw ParseError("PDB", "no ATOM/HETATM records found");
  }
  m.infer_bonds_from_geometry();
  return m;
}

std::string write_pdb(const Molecule& m) {
  std::string out;
  out += strformat("HEADER    SCIDOCK STRUCTURE%41s%-4s\n", "",
                   m.name().substr(0, 4).c_str());
  for (int i = 0; i < m.atom_count(); ++i) {
    const Atom& a = m.atom(i);
    const std::string_view symbol = element_info(a.element).symbol;
    out += strformat(
        "%-6s%5d %-4s %-3s %c%4d    %8.3f%8.3f%8.3f%6.2f%6.2f          %2s\n",
        a.hetero ? "HETATM" : "ATOM", a.serial != 0 ? a.serial : i + 1,
        a.name.substr(0, 4).c_str(), a.residue_name.substr(0, 3).c_str(),
        a.chain_id, a.residue_seq, a.pos.x, a.pos.y, a.pos.z, 1.0, 0.0,
        std::string(symbol).c_str());
  }
  out += "TER\nEND\n";
  return out;
}

}  // namespace scidock::mol
