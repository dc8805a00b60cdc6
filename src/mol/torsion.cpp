#include "mol/torsion.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"

namespace scidock::mol {

namespace {

/// Collect the atom set reachable from `start` without crossing the bond
/// (block_a, block_b) in either direction.
std::vector<int> reachable_without_bond(const Molecule& m, int start,
                                        int block_a, int block_b) {
  std::vector<bool> seen(static_cast<std::size_t>(m.atom_count()), false);
  std::deque<int> queue{start};
  seen[static_cast<std::size_t>(start)] = true;
  std::vector<int> out;
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    out.push_back(u);
    for (int v : m.neighbors(u)) {
      if ((u == block_a && v == block_b) || (u == block_b && v == block_a)) {
        continue;
      }
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        queue.push_back(v);
      }
    }
  }
  return out;
}

int heavy_count(const Molecule& m, const std::vector<int>& atoms) {
  int n = 0;
  for (int i : atoms) {
    if (m.atom(i).element != Element::H) ++n;
  }
  return n;
}

bool is_amide_like(const Molecule& m, int a, int b) {
  // C-N bond where the carbon also binds a double-bonded oxygen: the
  // classic non-rotatable amide. Bond orders from SDF/MOL2 make this exact;
  // geometry-inferred bonds (all Single) simply skip the check.
  auto check = [&m](int carbon, int nitrogen) {
    if (m.atom(carbon).element != Element::C ||
        m.atom(nitrogen).element != Element::N) {
      return false;
    }
    for (const Bond& bd : m.bonds()) {
      if (bd.order != BondOrder::Double) continue;
      const int other = bd.a == carbon ? bd.b : (bd.b == carbon ? bd.a : -1);
      if (other >= 0 && m.atom(other).element == Element::O) return true;
    }
    return false;
  };
  return check(a, b) || check(b, a);
}

}  // namespace

TorsionTree TorsionTree::build(const Molecule& m, int min_fragment) {
  SCIDOCK_ASSERT_MSG(m.perceived(), "perceive() the molecule before building a torsion tree");
  TorsionTree tree;

  // 1. Find rotatable bonds.
  struct RotBond {
    int a, b;
  };
  std::vector<RotBond> rotatable;
  for (const Bond& b : m.bonds()) {
    if (b.order != BondOrder::Single) continue;
    if (m.atom(b.a).element == Element::H || m.atom(b.b).element == Element::H) continue;
    if (is_amide_like(m, b.a, b.b)) continue;
    const std::vector<int> side_a = reachable_without_bond(m, b.a, b.a, b.b);
    // Ring bonds are rigid: removing a bond that belongs to a cycle does
    // not split the molecule, so the far endpoint stays reachable.
    if (std::find(side_a.begin(), side_a.end(), b.b) != side_a.end()) continue;
    const std::vector<int> side_b = reachable_without_bond(m, b.b, b.a, b.b);
    if (heavy_count(m, side_a) < min_fragment || heavy_count(m, side_b) < min_fragment) {
      continue;
    }
    rotatable.push_back({b.a, b.b});
  }

  // 2. Rigid fragments = connected components after deleting rotatable bonds.
  const int n = m.atom_count();
  std::vector<int> fragment(static_cast<std::size_t>(n), -1);
  auto is_rotatable = [&rotatable](int u, int v) {
    for (const RotBond& rb : rotatable) {
      if ((rb.a == u && rb.b == v) || (rb.a == v && rb.b == u)) return true;
    }
    return false;
  };
  int fragment_count = 0;
  for (int start = 0; start < n; ++start) {
    if (fragment[static_cast<std::size_t>(start)] != -1) continue;
    const int id = fragment_count++;
    std::deque<int> queue{start};
    fragment[static_cast<std::size_t>(start)] = id;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : m.neighbors(u)) {
        if (fragment[static_cast<std::size_t>(v)] != -1) continue;
        if (is_rotatable(u, v)) continue;
        fragment[static_cast<std::size_t>(v)] = id;
        queue.push_back(v);
      }
    }
  }

  // 3. Root = largest fragment (MGLTools default heuristic).
  std::vector<int> frag_size(static_cast<std::size_t>(fragment_count), 0);
  for (int i = 0; i < n; ++i) ++frag_size[static_cast<std::size_t>(fragment[static_cast<std::size_t>(i)])];
  const int root_frag = static_cast<int>(std::distance(
      frag_size.begin(), std::max_element(frag_size.begin(), frag_size.end())));
  for (int i = 0; i < n; ++i) {
    if (fragment[static_cast<std::size_t>(i)] == root_frag) tree.root_atoms_.push_back(i);
  }

  // 4. BFS from the root across rotatable bonds defines branch order
  //    (preorder: parents before children).
  std::vector<bool> frag_done(static_cast<std::size_t>(fragment_count), false);
  frag_done[static_cast<std::size_t>(root_frag)] = true;
  std::deque<std::pair<int, int>> frontier;  // (fragment id, parent branch)
  frontier.emplace_back(root_frag, -1);
  while (!frontier.empty()) {
    const auto [frag_id, parent_branch] = frontier.front();
    frontier.pop_front();
    for (const RotBond& rb : rotatable) {
      const int fa = fragment[static_cast<std::size_t>(rb.a)];
      const int fb = fragment[static_cast<std::size_t>(rb.b)];
      int from = -1, to = -1;
      if (fa == frag_id && !frag_done[static_cast<std::size_t>(fb)]) {
        from = rb.a;
        to = rb.b;
      } else if (fb == frag_id && !frag_done[static_cast<std::size_t>(fa)]) {
        from = rb.b;
        to = rb.a;
      } else {
        continue;
      }
      TorsionBranch branch;
      branch.atom_from = from;
      branch.atom_to = to;
      branch.parent = parent_branch;
      branch.moving_atoms = reachable_without_bond(m, to, from, to);
      // The pivot atom itself lies on the axis; rotating it is a no-op but
      // excluding it keeps the moving set semantically "what changes".
      std::erase(branch.moving_atoms, to);
      tree.branches_.push_back(std::move(branch));
      const int this_branch = static_cast<int>(tree.branches_.size()) - 1;
      const int next_frag = fragment[static_cast<std::size_t>(to)];
      frag_done[static_cast<std::size_t>(next_frag)] = true;
      frontier.emplace_back(next_frag, this_branch);
    }
  }
  tree.assign_pieces(n);
  return tree;
}

TorsionTree TorsionTree::from_branches(std::vector<TorsionBranch> branches,
                                       std::vector<int> root_atoms,
                                       int atom_count) {
  TorsionTree tree;
  tree.branches_ = std::move(branches);
  tree.root_atoms_ = std::move(root_atoms);
  tree.assign_pieces(atom_count);
  return tree;
}

void TorsionTree::assign_pieces(int atom_count) {
  const auto valid_atom = [atom_count](int a) { return a >= 0 && a < atom_count; };
  piece_.assign(static_cast<std::size_t>(atom_count), 0);
  std::vector<int> depth(branches_.size() + 1, 0);  // by piece; root = 0
  for (std::size_t b = 0; b < branches_.size(); ++b) {
    const TorsionBranch& br = branches_[b];
    SCIDOCK_REQUIRE(br.parent >= -1 && br.parent < static_cast<int>(b),
                    "torsion branch must follow its parent");
    SCIDOCK_REQUIRE(valid_atom(br.atom_from) && valid_atom(br.atom_to),
                    "torsion branch pivot out of range");
    const int piece = static_cast<int>(b) + 1;
    depth[b + 1] = depth[static_cast<std::size_t>(br.parent + 1)] + 1;
    for (int a : br.moving_atoms) {
      SCIDOCK_REQUIRE(valid_atom(a), "torsion branch atom out of range");
      int& owner = piece_[static_cast<std::size_t>(a)];
      if (depth[b + 1] > depth[static_cast<std::size_t>(owner)]) owner = piece;
    }
  }
}

bool TorsionTree::same_rigid_piece(int i, int j) const {
  const auto piece = [this](int atom) { return piece_[static_cast<std::size_t>(atom)]; };
  if (piece(i) == piece(j)) return true;
  const auto in_branch_piece = [&](int atom, std::size_t b) {
    const TorsionBranch& br = branches_[b];
    return piece(atom) == static_cast<int>(b) + 1 || atom == br.atom_from ||
           atom == br.atom_to;
  };
  for (std::size_t b = 0; b < branches_.size(); ++b) {
    if (in_branch_piece(i, b) && in_branch_piece(j, b)) return true;
  }
  return false;
}

std::vector<Vec3> TorsionTree::apply(const std::vector<Vec3>& reference,
                                     const Pose& pose,
                                     const std::vector<double>& torsion_angles) const {
  std::vector<RigidFrame> frames;
  std::vector<Vec3> coords;
  apply_into(reference, root_center(reference), pose, torsion_angles, frames,
             coords);
  return coords;
}

Vec3 TorsionTree::root_center(const std::vector<Vec3>& reference) const {
  std::vector<Vec3> root_ref;
  root_ref.reserve(root_atoms_.size());
  for (int i : root_atoms_) root_ref.push_back(reference[static_cast<std::size_t>(i)]);
  return root_ref.empty() ? Vec3{} : centroid(root_ref);
}

void TorsionTree::apply_into(const std::vector<Vec3>& reference,
                             const Vec3& root_center, const Pose& pose,
                             const std::vector<double>& torsion_angles,
                             std::vector<RigidFrame>& frames,
                             std::vector<Vec3>& out) const {
  SCIDOCK_ASSERT(torsion_angles.size() == branches_.size());
  SCIDOCK_ASSERT(reference.size() == piece_.size());
  frames.resize(branches_.size() + 1);
  const Mat3 r = Mat3::rotation(pose.rotation);
  frames[0] = {r, root_center - r * root_center + pose.translation};
  // Parents precede children, so each parent frame is ready in time.
  for (std::size_t b = 0; b < branches_.size(); ++b) {
    const TorsionBranch& br = branches_[b];
    const Vec3& from = reference[static_cast<std::size_t>(br.atom_from)];
    const Mat3 t = Mat3::axis_angle(
        reference[static_cast<std::size_t>(br.atom_to)] - from, torsion_angles[b]);
    const RigidFrame& parent = frames[static_cast<std::size_t>(br.parent + 1)];
    // parent(t * (x - from) + from)
    frames[b + 1] = {parent.rotation * t, parent.apply(from - t * from)};
  }
  out.resize(reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    out[i] = frames[static_cast<std::size_t>(piece_[i])].apply(reference[i]);
  }
}

}  // namespace scidock::mol
