#include "mol/io_pdbqt.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::mol {

namespace {

std::string atom_line(const Atom& a, int serial) {
  return strformat(
      "%-6s%5d %-4s %-3s %c%4d    %8.3f%8.3f%8.3f%6.2f%6.2f    %6.3f %-2s\n",
      a.hetero ? "HETATM" : "ATOM", serial, a.name.substr(0, 4).c_str(),
      a.residue_name.empty() ? "LIG" : a.residue_name.substr(0, 3).c_str(),
      a.chain_id, a.residue_seq, a.pos.x, a.pos.y, a.pos.z, 1.0, 0.0,
      a.partial_charge, std::string(ad_type_name(a.ad_type)).c_str());
}

}  // namespace

PdbqtModel read_pdbqt(std::string_view text, std::string_view name) {
  PdbqtModel model;
  model.molecule.set_name(std::string(name));

  std::istringstream in{std::string(text)};
  std::string line;

  struct PendingBranch {
    int serial_from = 0;
    int serial_to = 0;
    int parent = -1;
    std::vector<int> scope_atoms;  ///< atom indices read inside this scope
  };
  std::vector<PendingBranch> branches;
  std::vector<int> open_stack;       ///< indices into `branches`
  std::vector<int> root_atoms;
  std::map<int, int> serial_to_index;
  bool saw_root_marker = false;

  while (std::getline(in, line)) {
    const std::string_view lv = line;
    const std::string_view record = fixed_columns(lv, 0, 6);
    if (record == "ATOM" || record == "HETATM") {
      if (lv.size() < 54) throw ParseError("PDBQT", "truncated atom record: " + line);
      Atom atom;
      atom.serial = static_cast<int>(parse_int(fixed_columns(lv, 6, 5), "PDBQT serial"));
      atom.name = std::string(fixed_columns(lv, 12, 4));
      atom.residue_name = std::string(fixed_columns(lv, 17, 3));
      const std::string_view chain = fixed_columns(lv, 21, 1);
      atom.chain_id = chain.empty() ? 'A' : chain[0];
      const std::string_view seq = fixed_columns(lv, 22, 4);
      atom.residue_seq = seq.empty() ? 0 : static_cast<int>(parse_int(seq, "PDBQT resSeq"));
      atom.pos.x = parse_finite_double(fixed_columns(lv, 30, 8), "PDBQT x");
      atom.pos.y = parse_finite_double(fixed_columns(lv, 38, 8), "PDBQT y");
      atom.pos.z = parse_finite_double(fixed_columns(lv, 46, 8), "PDBQT z");
      atom.hetero = (record == "HETATM");
      // Tail after the z column: occupancy, temp factor, charge, AD type.
      const auto tail = split_ws(lv.substr(54));
      if (tail.size() < 2) throw ParseError("PDBQT", "missing charge/type: " + line);
      atom.partial_charge =
          parse_finite_double(tail[tail.size() - 2], "PDBQT charge");
      const auto t = ad_type_from_name(tail.back());
      if (!t) throw ParseError("PDBQT", "unknown AutoDock type '" + tail.back() + "'");
      atom.ad_type = *t;
      // Element follows from the AutoDock type token.
      switch (*t) {
        case AdType::H: case AdType::HD: atom.element = Element::H; break;
        case AdType::C: case AdType::A: atom.element = Element::C; break;
        case AdType::N: case AdType::NA: atom.element = Element::N; break;
        case AdType::OA: atom.element = Element::O; break;
        case AdType::F: atom.element = Element::F; break;
        case AdType::Mg: atom.element = Element::Mg; break;
        case AdType::P: atom.element = Element::P; break;
        case AdType::S: case AdType::SA: atom.element = Element::S; break;
        case AdType::Cl: atom.element = Element::Cl; break;
        case AdType::Ca: atom.element = Element::Ca; break;
        case AdType::Mn: atom.element = Element::Mn; break;
        case AdType::Fe: atom.element = Element::Fe; break;
        case AdType::Zn: atom.element = Element::Zn; break;
        case AdType::Br: atom.element = Element::Br; break;
        case AdType::I: atom.element = Element::I; break;
        case AdType::Hg: atom.element = Element::Hg; break;
        default: atom.element = Element::Unknown; break;
      }
      const int serial = atom.serial;
      const int index = model.molecule.add_atom(std::move(atom));
      serial_to_index[serial] = index;
      if (open_stack.empty()) {
        root_atoms.push_back(index);
      } else {
        for (int bi : open_stack) {
          branches[static_cast<std::size_t>(bi)].scope_atoms.push_back(index);
        }
      }
      continue;
    }
    const auto fields = split_ws(lv);
    if (fields.empty()) continue;
    if (fields[0] == "ROOT") {
      saw_root_marker = true;
    } else if (fields[0] == "ENDROOT") {
      // nothing to do: root scope is "no open branches"
    } else if (fields[0] == "BRANCH") {
      if (fields.size() < 3) throw ParseError("PDBQT", "bad BRANCH record: " + line);
      PendingBranch pb;
      pb.serial_from = static_cast<int>(parse_int(fields[1], "BRANCH from"));
      pb.serial_to = static_cast<int>(parse_int(fields[2], "BRANCH to"));
      pb.parent = open_stack.empty() ? -1 : open_stack.back();
      branches.push_back(std::move(pb));
      open_stack.push_back(static_cast<int>(branches.size()) - 1);
    } else if (fields[0] == "ENDBRANCH") {
      if (open_stack.empty()) throw ParseError("PDBQT", "unbalanced ENDBRANCH");
      open_stack.pop_back();
    } else if (fields[0] == "TORSDOF") {
      if (fields.size() >= 2) {
        model.torsdof = static_cast<int>(parse_int(fields[1], "TORSDOF"));
      }
    }
    // REMARK and other records are ignored.
  }
  if (!open_stack.empty()) throw ParseError("PDBQT", "unbalanced BRANCH");
  if (model.molecule.atom_count() == 0) throw ParseError("PDBQT", "no atoms");

  model.is_ligand = saw_root_marker || !branches.empty();
  std::vector<TorsionBranch> resolved;
  resolved.reserve(branches.size());
  for (const PendingBranch& pb : branches) {
    const auto fit = serial_to_index.find(pb.serial_from);
    const auto tit = serial_to_index.find(pb.serial_to);
    if (fit == serial_to_index.end() || tit == serial_to_index.end()) {
      throw ParseError("PDBQT", "BRANCH references unknown atom serial");
    }
    TorsionBranch br;
    br.atom_from = fit->second;
    br.atom_to = tit->second;
    br.parent = pb.parent;
    br.moving_atoms = pb.scope_atoms;
    std::erase(br.moving_atoms, br.atom_to);
    resolved.push_back(std::move(br));
  }
  model.torsions = TorsionTree::from_branches(std::move(resolved), root_atoms,
                                              model.molecule.atom_count());
  if (model.is_ligand && model.torsdof == 0) {
    model.torsdof = model.torsions.torsion_count();
  }
  return model;
}

std::vector<PdbqtModel> read_pdbqt_models(std::string_view text,
                                          std::string_view name) {
  std::vector<PdbqtModel> models;
  std::istringstream in{std::string(text)};
  std::string line;
  std::string block;
  bool in_model = false;
  bool saw_model_record = false;
  while (std::getline(in, line)) {
    const auto fields = split_ws(line);
    if (!fields.empty() && fields[0] == "MODEL") {
      saw_model_record = true;
      in_model = true;
      block.clear();
      continue;
    }
    if (!fields.empty() && fields[0] == "ENDMDL") {
      SCIDOCK_REQUIRE(in_model, "ENDMDL without MODEL");
      models.push_back(read_pdbqt(block, name));
      in_model = false;
      continue;
    }
    block += line;
    block += '\n';
  }
  SCIDOCK_REQUIRE(!in_model, "unterminated MODEL block");
  if (!saw_model_record) models.push_back(read_pdbqt(text, name));
  return models;
}

std::string write_pdbqt_rigid(const Molecule& m) {
  std::string out = "REMARK  scidock rigid receptor " + m.name() + "\n";
  for (int i = 0; i < m.atom_count(); ++i) {
    out += atom_line(m.atom(i), i + 1);
  }
  out += "TER\n";
  return out;
}

std::string write_pdbqt_ligand(const Molecule& m, const TorsionTree& tree) {
  std::string out = "REMARK  scidock ligand " + m.name() + "\n";
  out += strformat("REMARK  %d active torsions\n", tree.torsion_count());

  // Branch ownership: each branch's own fragment is {atom_to} plus its
  // moving atoms minus everything owned by child branches.
  const auto& branches = tree.branches();
  std::vector<std::vector<int>> children(branches.size());
  for (std::size_t bi = 0; bi < branches.size(); ++bi) {
    if (branches[bi].parent >= 0) {
      children[static_cast<std::size_t>(branches[bi].parent)].push_back(static_cast<int>(bi));
    }
  }
  std::vector<std::vector<int>> own(branches.size());
  for (std::size_t bi = 0; bi < branches.size(); ++bi) {
    std::vector<bool> excluded(static_cast<std::size_t>(m.atom_count()), false);
    for (int ci : children[bi]) {
      const TorsionBranch& cb = branches[static_cast<std::size_t>(ci)];
      excluded[static_cast<std::size_t>(cb.atom_to)] = true;
      for (int a : cb.moving_atoms) excluded[static_cast<std::size_t>(a)] = true;
    }
    own[bi].push_back(branches[bi].atom_to);
    for (int a : branches[bi].moving_atoms) {
      if (!excluded[static_cast<std::size_t>(a)]) own[bi].push_back(a);
    }
    std::sort(own[bi].begin(), own[bi].end());
    own[bi].erase(std::unique(own[bi].begin(), own[bi].end()), own[bi].end());
  }

  out += "ROOT\n";
  for (int i : tree.root_atoms()) out += atom_line(m.atom(i), i + 1);
  out += "ENDROOT\n";

  // Emit the branch forest depth-first so BRANCH records nest correctly.
  std::function<void(int)> emit = [&](int bi) {
    const TorsionBranch& br = branches[static_cast<std::size_t>(bi)];
    out += strformat("BRANCH %3d %3d\n", br.atom_from + 1, br.atom_to + 1);
    for (int a : own[static_cast<std::size_t>(bi)]) out += atom_line(m.atom(a), a + 1);
    for (int ci : children[static_cast<std::size_t>(bi)]) emit(ci);
    out += strformat("ENDBRANCH %3d %3d\n", br.atom_from + 1, br.atom_to + 1);
  };
  for (std::size_t bi = 0; bi < branches.size(); ++bi) {
    if (branches[bi].parent == -1) emit(static_cast<int>(bi));
  }
  out += strformat("TORSDOF %d\n", tree.torsion_count());
  return out;
}

}  // namespace scidock::mol
