#include "mol/io_sdf.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::mol {

namespace {

Molecule parse_record(const std::vector<std::string>& lines,
                      std::string_view fallback_name) {
  if (lines.size() < 4) throw ParseError("SDF", "record shorter than header");
  Molecule m{std::string(trim(lines[0]).empty() ? fallback_name : trim(lines[0]))};

  const std::string& counts = lines[3];
  if (counts.size() < 6) throw ParseError("SDF", "bad counts line: " + counts);
  const int natoms = static_cast<int>(parse_int(fixed_columns(counts, 0, 3), "SDF atom count"));
  const int nbonds = static_cast<int>(parse_int(fixed_columns(counts, 3, 3), "SDF bond count"));
  if (static_cast<int>(lines.size()) < 4 + natoms + nbonds) {
    throw ParseError("SDF", "record truncated (counts exceed data)");
  }

  for (int i = 0; i < natoms; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(4 + i)];
    if (line.size() < 34) throw ParseError("SDF", "short atom line: " + line);
    Atom atom;
    atom.serial = i + 1;
    atom.pos.x = parse_double(fixed_columns(line, 0, 10), "SDF x");
    atom.pos.y = parse_double(fixed_columns(line, 10, 10), "SDF y");
    atom.pos.z = parse_double(fixed_columns(line, 20, 10), "SDF z");
    const std::string_view symbol = fixed_columns(line, 31, 3);
    const auto e = element_from_symbol(symbol);
    if (!e) throw ParseError("SDF", "unknown element '" + std::string(symbol) + "'");
    atom.element = *e;
    atom.name = std::string(symbol) + std::to_string(i + 1);
    m.add_atom(std::move(atom));
  }
  for (int i = 0; i < nbonds; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(4 + natoms + i)];
    if (line.size() < 9) throw ParseError("SDF", "short bond line: " + line);
    const int a = static_cast<int>(parse_int(fixed_columns(line, 0, 3), "SDF bond a"));
    const int b = static_cast<int>(parse_int(fixed_columns(line, 3, 3), "SDF bond b"));
    const int t = static_cast<int>(parse_int(fixed_columns(line, 6, 3), "SDF bond type"));
    if (a < 1 || a > natoms || b < 1 || b > natoms) {
      throw ParseError("SDF", "bond atom index out of range: " + line);
    }
    if (a == b) throw ParseError("SDF", "bond joins an atom to itself: " + line);
    BondOrder order = BondOrder::Single;
    if (t == 2) order = BondOrder::Double;
    else if (t == 3) order = BondOrder::Triple;
    else if (t == 4) order = BondOrder::Aromatic;
    m.add_bond(a - 1, b - 1, order);
  }
  return m;
}

}  // namespace

Molecule read_sdf(std::string_view text, std::string_view name) {
  std::vector<Molecule> all = read_sdf_multi(text);
  if (all.empty()) throw ParseError("SDF", "empty document");
  if (!name.empty()) all.front().set_name(std::string(name));
  return std::move(all.front());
}

std::vector<Molecule> read_sdf_multi(std::string_view text) {
  std::vector<Molecule> out;
  std::istringstream in{std::string(text)};
  std::string line;
  std::vector<std::string> record;
  int index = 0;
  auto flush = [&] {
    // Drop data items / blank tails; a valid record has content.
    if (!record.empty() && record.size() >= 4) {
      out.push_back(parse_record(record, "ligand" + std::to_string(index++)));
    }
    record.clear();
  };
  while (std::getline(in, line)) {
    if (trim(line) == "$$$$") {
      flush();
    } else if (trim(line) == "M  END" || starts_with(trim(line), "M END")) {
      record.push_back(line);  // keep; parser stops at counts anyway
    } else {
      record.push_back(line);
    }
  }
  flush();
  return out;
}

std::string write_sdf(const Molecule& m) {
  std::string out;
  out += m.name() + "\n  scidock\n\n";
  out += strformat("%3d%3d  0  0  0  0  0  0  0  0999 V2000\n", m.atom_count(),
                   m.bond_count());
  for (const Atom& a : m.atoms()) {
    out += strformat("%10.4f%10.4f%10.4f %-3s 0  0  0  0  0  0  0  0  0  0  0  0\n",
                     a.pos.x, a.pos.y, a.pos.z,
                     std::string(element_info(a.element).symbol).c_str());
  }
  for (const Bond& b : m.bonds()) {
    int t = 1;
    if (b.order == BondOrder::Double) t = 2;
    else if (b.order == BondOrder::Triple) t = 3;
    else if (b.order == BondOrder::Aromatic) t = 4;
    out += strformat("%3d%3d%3d  0\n", b.a + 1, b.b + 1, t);
  }
  out += "M  END\n$$$$\n";
  return out;
}

}  // namespace scidock::mol
