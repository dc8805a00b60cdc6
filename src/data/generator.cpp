#include "data/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "mol/io_pdb.hpp"
#include "mol/io_sdf.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scidock::data {

using mol::Atom;
using mol::BondOrder;
using mol::Element;
using mol::Molecule;
using mol::Vec3;

namespace {

Vec3 random_unit(Rng& rng) {
  // Marsaglia: uniform on the sphere.
  for (;;) {
    const double x = rng.uniform(-1.0, 1.0);
    const double y = rng.uniform(-1.0, 1.0);
    const double s = x * x + y * y;
    if (s >= 1.0) continue;
    const double root = 2.0 * std::sqrt(1.0 - s);
    return {x * root, y * root, 1.0 - 2.0 * s};
  }
}

/// True if `p` is closer than `min_dist` to any position in `placed`.
bool clashes(const std::vector<Vec3>& placed, const Vec3& p, double min_dist) {
  const double d2 = min_dist * min_dist;
  for (const Vec3& q : placed) {
    if (mol::distance_sq(p, q) < d2) return true;
  }
  return false;
}

/// The twenty-ish residue names the generator cycles through; CYS is
/// over-represented because the dataset is a cysteine-protease clan.
const char* kResidueNames[] = {"CYS", "GLY", "ALA", "SER", "LEU", "VAL",
                               "CYS", "ASP", "GLU", "LYS", "HIS", "TRP",
                               "ASN", "GLN", "THR", "CYS", "PHE", "ILE"};

}  // namespace

int receptor_residue_count(std::string_view code, const GeneratorOptions& opts) {
  // A smooth deterministic spread across [min, max]; quadratic skew so
  // "large" receptors are the minority, like real PDB size distributions.
  std::uint64_t h = fnv1a64(code) ^ 0x7ec7u;
  const double u = static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
  const double skewed = u * u * 0.6 + u * 0.4;
  return opts.min_residues +
         static_cast<int>(skewed * (opts.max_residues - opts.min_residues));
}

int vina_size_threshold(const GeneratorOptions& opts) {
  // Route the largest ~45% of receptors to Vina, giving the paper's two
  // sizeable scenarios.
  return opts.min_residues +
         static_cast<int>(0.55 * (opts.max_residues - opts.min_residues));
}

bool receptor_has_hg(std::string_view code, const GeneratorOptions& opts) {
  std::uint64_t h = fnv1a64(code) ^ 0x49a1u;
  const double u = static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
  return u < opts.hg_fraction;
}

Molecule make_receptor(std::string_view code, const GeneratorOptions& opts) {
  Rng rng(fnv1a64(code));
  const int residues = receptor_residue_count(code, opts);
  Molecule m{std::string(code)};

  // Compact globule radius ~ c * n^(1/3); protein density heuristic.
  const double radius = 4.0 * std::cbrt(static_cast<double>(residues)) + 4.0;
  std::vector<Vec3> ca_trace;
  Vec3 pos = random_unit(rng) * (radius * 0.7);

  int serial = 1;
  for (int r = 0; r < residues; ++r) {
    // Advance the CA trace: 3.8 Å steps, bounced off the globule surface
    // and repelled from the central binding cavity.
    for (int attempt = 0; attempt < 24; ++attempt) {
      const Vec3 step = random_unit(rng) * 3.8;
      Vec3 candidate = pos + step;
      if (candidate.norm() > radius) candidate = candidate * (radius / candidate.norm());
      if (candidate.norm() < kCavityRadius) continue;  // keep the pocket open
      if (clashes(ca_trace, candidate, 3.4)) continue;
      pos = candidate;
      break;
    }
    ca_trace.push_back(pos);

    const std::string res_name =
        kResidueNames[rng.below(std::size(kResidueNames))];
    auto add = [&](const char* atom_name, Element e, const Vec3& offset,
                   bool hetero = false) {
      Atom a;
      a.serial = serial++;
      a.name = atom_name;
      a.element = e;
      a.pos = pos + offset;
      a.residue_name = res_name;
      a.residue_seq = r + 1;
      a.chain_id = 'A';
      a.hetero = hetero;
      m.add_atom(std::move(a));
    };
    // Backbone N-CA-C=O plus a CB side-chain stub; CYS gets its thiol.
    add("N", Element::N, random_unit(rng) * 1.46);
    add("CA", Element::C, {0, 0, 0});
    const Vec3 c_dir = random_unit(rng);
    add("C", Element::C, c_dir * 1.52);
    add("O", Element::O, c_dir * 1.52 + random_unit(rng) * 1.23);
    if (res_name != "GLY") {
      const Vec3 cb_dir = random_unit(rng);
      add("CB", Element::C, cb_dir * 1.53);
      if (res_name == "CYS") add("SG", Element::S, cb_dir * 1.53 + random_unit(rng) * 1.81);
    }
  }

  // Line the carved cavity with a dense shell of pocket residues — real
  // binding sites pack side chains against the ligand; without this the
  // synthetic pocket is too sparse for deep binding wells.
  const int lining = 60 + residues;
  for (int k = 0; k < lining; ++k) {
    const Vec3 dir = random_unit(rng);
    const Vec3 site = dir * (kCavityRadius + 1.3 + rng.uniform(0.0, 0.8));
    const std::string res_name =
        kResidueNames[rng.below(std::size(kResidueNames))];
    Atom a;
    a.serial = serial++;
    a.name = (k % 3 == 0) ? "OD1" : ((k % 3 == 1) ? "CG" : "ND2");
    a.element = (k % 3 == 0) ? Element::O : ((k % 3 == 1) ? Element::C : Element::N);
    a.pos = site;
    a.residue_name = res_name;
    a.residue_seq = residues + k + 1;
    a.chain_id = 'A';
    m.add_atom(std::move(a));
  }

  // A few crystallographic waters (stripped by receptor preparation).
  const int waters = static_cast<int>(rng.below(4));
  for (int w = 0; w < waters; ++w) {
    Atom a;
    a.serial = serial++;
    a.name = "O";
    a.element = Element::O;
    a.pos = random_unit(rng) * (radius + 2.0);
    a.residue_name = "HOH";
    a.residue_seq = residues + w + 1;
    a.hetero = true;
    m.add_atom(std::move(a));
  }

  if (receptor_has_hg(code, opts)) {
    Atom a;
    a.serial = serial++;
    a.name = "HG";
    a.element = Element::Hg;
    a.pos = random_unit(rng) * (radius * 0.8);
    a.residue_name = "HG";
    a.residue_seq = residues + waters + 1;
    a.hetero = true;
    m.add_atom(std::move(a));
  }
  return m;
}

Molecule make_ligand(std::string_view code, const GeneratorOptions& opts) {
  Rng rng(fnv1a64(code) ^ 0x11ULL);
  const int heavy =
      opts.min_ligand_atoms +
      static_cast<int>(rng.below(static_cast<std::uint64_t>(
          opts.max_ligand_atoms - opts.min_ligand_atoms + 1)));
  Molecule m{std::string(code)};

  // --- topology: an aromatic 6-ring core plus a random grown tree ---
  std::vector<int> degree;

  auto add_atom_node = [&](Element e) {
    Atom a;
    a.serial = m.atom_count() + 1;
    a.element = e;
    a.name = std::string(mol::element_info(e).symbol) +
             std::to_string(m.atom_count() + 1);
    a.residue_name = std::string(code).substr(0, 3);
    a.residue_seq = 1;
    degree.push_back(0);
    return m.add_atom(std::move(a));
  };

  // Benzene-like core.
  for (int i = 0; i < 6; ++i) add_atom_node(Element::C);
  for (int i = 0; i < 6; ++i) {
    m.add_bond(i, (i + 1) % 6, BondOrder::Aromatic);
    degree[static_cast<std::size_t>(i)] += 1;
    degree[static_cast<std::size_t>((i + 1) % 6)] += 1;
  }

  auto pick_element = [&]() {
    const double u = rng.uniform();
    if (u < 0.62) return Element::C;
    if (u < 0.76) return Element::N;
    if (u < 0.90) return Element::O;
    if (u < 0.95) return Element::S;
    if (u < 0.98) return Element::Cl;
    return Element::F;
  };
  auto cap_for = [](Element e) {
    switch (e) {
      case Element::C: return 4;
      case Element::N: return 3;
      case Element::O: return 2;
      case Element::S: return 2;
      default: return 1;
    }
  };

  while (m.atom_count() < heavy) {
    // Attach to a random atom with spare valence.
    std::vector<int> candidates;
    for (int i = 0; i < m.atom_count(); ++i) {
      const Element e = m.atom(i).element;
      if (degree[static_cast<std::size_t>(i)] < cap_for(e) - (i < 6 ? 1 : 0)) {
        candidates.push_back(i);
      }
    }
    if (candidates.empty()) break;
    const int parent = candidates[rng.below(candidates.size())];
    const Element e = pick_element();
    const int child = add_atom_node(e);
    BondOrder order = BondOrder::Single;
    // Occasional carbonyl: C=O terminal.
    if (e == Element::O && m.atom(parent).element == Element::C &&
        degree[static_cast<std::size_t>(parent)] <= 2 && rng.chance(0.3)) {
      order = BondOrder::Double;
    }
    m.add_bond(parent, child, order);
    degree[static_cast<std::size_t>(parent)] += 1;
    degree[static_cast<std::size_t>(child)] += 1;
  }

  // Polar hydrogens on N/O with spare valence (H-bond donors).
  const int heavy_n = m.atom_count();
  for (int i = 6; i < heavy_n; ++i) {
    const Element e = m.atom(i).element;
    if ((e == Element::N || e == Element::O) &&
        degree[static_cast<std::size_t>(i)] < cap_for(e) && rng.chance(0.8)) {
      const int h = add_atom_node(Element::H);
      m.add_bond(i, h, BondOrder::Single);
      degree[static_cast<std::size_t>(i)] += 1;
      degree[static_cast<std::size_t>(h)] += 1;
    }
  }

  // --- 3D embedding: ring as a planar hexagon, the rest grown outward ---
  std::vector<Vec3> coords(static_cast<std::size_t>(m.atom_count()));
  std::vector<bool> placed(static_cast<std::size_t>(m.atom_count()), false);
  constexpr double kRingBond = 1.39;
  for (int i = 0; i < 6; ++i) {
    const double angle = 2.0 * std::numbers::pi * i / 6.0;
    coords[static_cast<std::size_t>(i)] = {kRingBond * std::cos(angle) / (2 * std::sin(std::numbers::pi / 6)),
                                           kRingBond * std::sin(angle) / (2 * std::sin(std::numbers::pi / 6)),
                                           0.0};
    placed[static_cast<std::size_t>(i)] = true;
  }
  // BFS placement along bonds.
  bool progress = true;
  std::vector<Vec3> occupied(coords.begin(), coords.begin() + 6);
  while (progress) {
    progress = false;
    for (const mol::Bond& b : m.bonds()) {
      int from = -1, to = -1;
      if (placed[static_cast<std::size_t>(b.a)] && !placed[static_cast<std::size_t>(b.b)]) {
        from = b.a;
        to = b.b;
      } else if (placed[static_cast<std::size_t>(b.b)] && !placed[static_cast<std::size_t>(b.a)]) {
        from = b.b;
        to = b.a;
      } else {
        continue;
      }
      const double length =
          mol::element_info(m.atom(from).element).covalent_radius +
          mol::element_info(m.atom(to).element).covalent_radius;
      Vec3 p;
      bool ok = false;
      for (int attempt = 0; attempt < 30; ++attempt) {
        p = coords[static_cast<std::size_t>(from)] + random_unit(rng) * length;
        if (!clashes(occupied, p, 1.1)) {
          ok = true;
          break;
        }
      }
      if (!ok) p = coords[static_cast<std::size_t>(from)] + random_unit(rng) * length;
      coords[static_cast<std::size_t>(to)] = p;
      placed[static_cast<std::size_t>(to)] = true;
      occupied.push_back(p);
      progress = true;
    }
  }
  for (int i = 0; i < m.atom_count(); ++i) {
    m.mutable_atom(i).pos = coords[static_cast<std::size_t>(i)];
  }
  // Real SDF depositions sit in their own crystal/builder frame, tens of
  // Ångström away from any receptor's frame; reproduce that so RMSD-from-
  // input behaves like the paper's (large for reference-relative RMSD).
  m.translate(random_unit(rng) * rng.uniform(40.0, 70.0));
  return m;
}

int stage_dataset(vfs::SharedFileSystem& fs, std::string_view expdir,
                  const std::vector<std::string>& receptors,
                  const std::vector<std::string>& ligands,
                  const GeneratorOptions& opts) {
  int staged = 0;
  const std::string base = std::string(expdir) + "/input/";
  for (const std::string& code : receptors) {
    fs.write(base + code + ".pdb", mol::write_pdb(make_receptor(code, opts)));
    ++staged;
  }
  for (const std::string& code : ligands) {
    fs.write(base + code + ".sdf", mol::write_sdf(make_ligand(code, opts)));
    ++staged;
  }
  return staged;
}

wf::Relation build_pairs_relation(const std::vector<std::string>& receptors,
                                  const std::vector<std::string>& ligands,
                                  std::string_view expdir,
                                  std::size_t max_pairs,
                                  const GeneratorOptions& opts) {
  wf::Relation rel{{"pair", "receptor", "ligand", "receptor_file",
                    "ligand_file", "residues", "engine", "workload", "hg"}};
  const std::string base = std::string(expdir) + "/input/";
  const double mean_residues = (opts.min_residues + opts.max_residues) / 2.0;
  const int threshold = vina_size_threshold(opts);
  std::size_t count = 0;
  // Ligand-major order matches the paper's analysis of "the first 1,000
  // pairs" being the 238 receptors against the first 4 ligands.
  for (const std::string& lig : ligands) {
    for (const std::string& rec : receptors) {
      if (max_pairs != 0 && count >= max_pairs) return rel;
      const int residues = receptor_residue_count(rec, opts);
      wf::Tuple t;
      t.set("pair", lig + "_" + rec);
      t.set("receptor", rec);
      t.set("ligand", lig);
      t.set("receptor_file", base + rec + ".pdb");
      t.set("ligand_file", base + lig + ".sdf");
      t.set("residues", std::to_string(residues));
      t.set("engine", residues > threshold ? "vina" : "ad4");
      t.set("workload", strformat("%.3f", residues / mean_residues));
      t.set("hg", receptor_has_hg(rec, opts) ? "1" : "0");
      rel.add(std::move(t));
      ++count;
    }
  }
  return rel;
}

}  // namespace scidock::data
