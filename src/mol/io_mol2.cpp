#include "mol/io_mol2.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::mol {

namespace {

/// Sybyl atom types are "El" or "El.hyb" (e.g. "C.ar", "N.3", "O.co2").
Element element_from_sybyl(std::string_view type) {
  const std::size_t dot = type.find('.');
  const std::string_view sym = dot == std::string_view::npos ? type : type.substr(0, dot);
  if (auto e = element_from_symbol(sym)) return *e;
  return Element::Unknown;
}

std::string sybyl_type(const Atom& a, bool aromatic) {
  const std::string sym{element_info(a.element).symbol};
  switch (a.element) {
    case Element::C: return aromatic ? "C.ar" : "C.3";
    case Element::N: return aromatic ? "N.ar" : "N.3";
    case Element::O: return "O.3";
    case Element::S: return "S.3";
    default: return sym;
  }
}

}  // namespace

Molecule read_mol2(std::string_view text, std::string_view name) {
  std::istringstream in{std::string(text)};
  std::string line;
  enum class Section { None, Molecule, Atom, Bond } section = Section::None;
  Molecule m{std::string(name)};
  int molecule_line = 0;
  bool any_atoms = false;

  while (std::getline(in, line)) {
    const std::string_view lv = trim(line);
    if (starts_with(lv, "@<TRIPOS>")) {
      const std::string_view tag = lv.substr(9);
      if (iequals(tag, "MOLECULE")) { section = Section::Molecule; molecule_line = 0; }
      else if (iequals(tag, "ATOM")) section = Section::Atom;
      else if (iequals(tag, "BOND")) section = Section::Bond;
      else section = Section::None;
      continue;
    }
    if (lv.empty() || lv[0] == '#') continue;
    switch (section) {
      case Section::Molecule:
        if (molecule_line == 0 && name.empty() && !lv.empty()) {
          m.set_name(std::string(lv));
        }
        ++molecule_line;
        break;
      case Section::Atom: {
        const auto fields = split_ws(lv);
        if (fields.size() < 6) throw ParseError("MOL2", "short atom line: " + line);
        Atom atom;
        atom.serial = static_cast<int>(parse_int(fields[0], "MOL2 atom id"));
        atom.name = fields[1];
        atom.pos.x = parse_finite_double(fields[2], "MOL2 x");
        atom.pos.y = parse_finite_double(fields[3], "MOL2 y");
        atom.pos.z = parse_finite_double(fields[4], "MOL2 z");
        atom.element = element_from_sybyl(fields[5]);
        if (fields.size() >= 8) atom.residue_name = fields[7];
        if (fields.size() >= 9) {
          atom.partial_charge = parse_finite_double(fields[8], "MOL2 charge");
        }
        m.add_atom(std::move(atom));
        any_atoms = true;
        break;
      }
      case Section::Bond: {
        const auto fields = split_ws(lv);
        if (fields.size() < 4) throw ParseError("MOL2", "short bond line: " + line);
        const int a = static_cast<int>(parse_int(fields[1], "MOL2 bond a"));
        const int b = static_cast<int>(parse_int(fields[2], "MOL2 bond b"));
        BondOrder order = BondOrder::Single;
        if (fields[3] == "2") order = BondOrder::Double;
        else if (fields[3] == "3") order = BondOrder::Triple;
        else if (iequals(fields[3], "ar") || iequals(fields[3], "am")) order = BondOrder::Aromatic;
        if (a < 1 || a > m.atom_count() || b < 1 || b > m.atom_count()) {
          throw ParseError("MOL2", "bond index out of range: " + line);
        }
        if (a == b) {
          throw ParseError("MOL2", "bond joins an atom to itself: " + line);
        }
        m.add_bond(a - 1, b - 1, order);
        break;
      }
      default:
        break;
    }
  }
  if (!any_atoms) throw ParseError("MOL2", "no @<TRIPOS>ATOM section");
  return m;
}

std::string write_mol2(const Molecule& mol) {
  Molecule m = mol;  // perceive() for aromaticity without mutating input
  m.perceive();
  std::string out;
  out += "@<TRIPOS>MOLECULE\n";
  out += m.name() + "\n";
  out += strformat("%5d %5d 1 0 0\n", m.atom_count(), m.bond_count());
  out += "SMALL\nGASTEIGER\n\n@<TRIPOS>ATOM\n";
  for (int i = 0; i < m.atom_count(); ++i) {
    const Atom& a = m.atom(i);
    const bool aromatic = a.ad_type == AdType::A;
    out += strformat("%7d %-8s %9.4f %9.4f %9.4f %-8s %3d %-8s %9.4f\n",
                     i + 1, a.name.c_str(), a.pos.x, a.pos.y, a.pos.z,
                     sybyl_type(a, aromatic).c_str(),
                     a.residue_seq > 0 ? a.residue_seq : 1,
                     a.residue_name.empty() ? "LIG" : a.residue_name.c_str(),
                     a.partial_charge);
  }
  out += "@<TRIPOS>BOND\n";
  for (int i = 0; i < m.bond_count(); ++i) {
    const Bond& b = m.bonds()[static_cast<std::size_t>(i)];
    const char* t = "1";
    if (b.order == BondOrder::Double) t = "2";
    else if (b.order == BondOrder::Triple) t = "3";
    else if (b.order == BondOrder::Aromatic) t = "ar";
    out += strformat("%6d %5d %5d %s\n", i + 1, b.a + 1, b.b + 1, t);
  }
  return out;
}

}  // namespace scidock::mol
