#include "dock/scoring.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/error.hpp"

namespace scidock::dock {

double mehler_solmajer_dielectric(double r) {
  // eps(r) = A + B / (1 + k e^(-lambda B r)), Mehler & Solmajer 1991.
  constexpr double kA = -8.5525;
  constexpr double kB = 78.4 - kA;
  constexpr double kK = 7.7839;
  constexpr double kLambda = 0.003627;
  return kA + kB / (1.0 + kK * std::exp(-kLambda * kB * r));
}

namespace {

constexpr double kMinDistance = 0.5;  ///< clamp to avoid singularities
/// NeighborList's bound on its dense cell array (4 MB of offsets).
constexpr double kMaxCells = 1 << 20;

bool is_hbond_pair(const mol::AdTypeParams& a, const mol::AdTypeParams& b) {
  return (a.hbond_donor && b.hbond_acceptor) ||
         (a.hbond_acceptor && b.hbond_donor);
}

}  // namespace

double ad4_vdw_hbond(mol::AdType ti, mol::AdType tj, double r,
                     const Ad4Weights& w) {
  const auto& pi = mol::ad_type_params(ti);
  const auto& pj = mol::ad_type_params(tj);
  r = std::max(r, kMinDistance);

  // Lorentz-Berthelot-style combination as AD4 uses on its parameter file.
  const double req = 0.5 * (pi.rii + pj.rii);
  const double eps = std::sqrt(pi.epsii * pj.epsii);

  if (is_hbond_pair(pi, pj)) {
    // 12-10 hydrogen-bond well, depth 5 kcal/mol at 1.9 Å (AD4 convention).
    constexpr double kHbRadius = 1.9;
    constexpr double kHbDepth = 5.0;
    const double ratio = kHbRadius / r;
    const double r10 = std::pow(ratio, 10);
    const double r12 = r10 * ratio * ratio;
    const double e = kHbDepth * (5.0 * r12 - 6.0 * r10);
    return w.hbond * std::min(e, 100.0);
  }
  const double ratio = req / r;
  const double r6 = std::pow(ratio, 6);
  const double r12 = r6 * r6;
  const double e = eps * (r12 - 2.0 * r6);
  // AD4 clamps the repulsive wall (EINTCLAMP) so a single clash cannot
  // produce astronomically large energies that break the GA.
  return w.vdw * std::min(e, 100.0);
}

double ad4_pair_energy(mol::AdType ti, double qi, mol::AdType tj, double qj,
                       double r, const Ad4Weights& w) {
  r = std::max(r, kMinDistance);
  const auto& pi = mol::ad_type_params(ti);
  const auto& pj = mol::ad_type_params(tj);

  double e = ad4_vdw_hbond(ti, tj, r, w);

  // Screened Coulomb: 332.06 converts e^2/Å to kcal/mol.
  constexpr double kCoulomb = 332.06;
  e += w.estat * kCoulomb * qi * qj / (mehler_solmajer_dielectric(r) * r);

  // Gaussian-weighted pairwise desolvation (Stouten-style, sigma 3.6 Å).
  constexpr double kSigma = 3.6;
  constexpr double kQasp = 0.01097;  ///< charge-dependent solvation factor
  const double gauss = std::exp(-(r * r) / (2.0 * kSigma * kSigma));
  const double solv =
      (pi.solpar + kQasp * std::abs(qi)) * pj.volume +
      (pj.solpar + kQasp * std::abs(qj)) * pi.volume;
  e += w.desolv * solv * gauss;
  return e;
}

double vina_pair_energy(mol::AdType ti, mol::AdType tj, double r,
                        const VinaWeights& w) {
  const mol::VinaKind ki = mol::vina_kind(ti);
  const mol::VinaKind kj = mol::vina_kind(tj);
  if (ki.skip || kj.skip) return 0.0;
  constexpr double kCutoff = 8.0;
  if (r >= kCutoff) return 0.0;

  const double d = r - (ki.radius + kj.radius);  // surface distance

  double e = 0.0;
  e += w.gauss1 * std::exp(-std::pow(d / 0.5, 2));
  e += w.gauss2 * std::exp(-std::pow((d - 3.0) / 2.0, 2));
  if (d < 0.0) e += w.repulsion * d * d;

  if (ki.hydrophobic && kj.hydrophobic) {
    // Linear ramp: full weight below 0.5 Å surface distance, zero above 1.5.
    double f = 0.0;
    if (d < 0.5) f = 1.0;
    else if (d < 1.5) f = 1.5 - d;
    e += w.hydrophobic * f;
  }
  if ((ki.donor && kj.acceptor) || (ki.acceptor && kj.donor)) {
    // Linear ramp: full weight below -0.7 Å, zero above 0.
    double f = 0.0;
    if (d < -0.7) f = 1.0;
    else if (d < 0.0) f = -d / 0.7;
    e += w.hbond * f;
  }
  return e;
}

double vina_affinity(double intermolecular_energy, int n_rot,
                     const VinaWeights& w) {
  return intermolecular_energy / (1.0 + w.rot * static_cast<double>(n_rot));
}

NeighborList::NeighborList(const mol::Molecule& receptor, double cutoff)
    : cutoff_(cutoff), cutoff_sq_(cutoff * cutoff), edge_(cutoff) {
  SCIDOCK_ASSERT(cutoff > 0);
  const int n = receptor.atom_count();
  positions_.reserve(static_cast<std::size_t>(n));
  std::vector<int> placed;
  mol::Vec3 lo{}, hi{};
  for (int i = 0; i < n; ++i) {
    const mol::Vec3& p = receptor.atom(i).pos;
    positions_.push_back(p);
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      continue;
    }
    if (placed.empty()) lo = hi = p;
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    placed.push_back(i);
  }
  cell_start_.assign(1, 0);
  if (placed.empty()) return;

  const auto cells_along = [this](double a, double b) {
    return axis_cell(b) - axis_cell(a) + 1.0;
  };
  while (cells_along(lo.x, hi.x) * cells_along(lo.y, hi.y) *
             cells_along(lo.z, hi.z) >
         kMaxCells) {
    edge_ *= 2.0;
  }
  origin_cell_[0] = axis_cell(lo.x);
  origin_cell_[1] = axis_cell(lo.y);
  origin_cell_[2] = axis_cell(lo.z);
  dims_[0] = static_cast<int>(cells_along(lo.x, hi.x));
  dims_[1] = static_cast<int>(cells_along(lo.y, hi.y));
  dims_[2] = static_cast<int>(cells_along(lo.z, hi.z));

  // Counting sort by cell; atoms enter each cell in index order.
  const auto cell_of = [this](const mol::Vec3& p) {
    const int cx = static_cast<int>(axis_cell(p.x) - origin_cell_[0]);
    const int cy = static_cast<int>(axis_cell(p.y) - origin_cell_[1]);
    const int cz = static_cast<int>(axis_cell(p.z) - origin_cell_[2]);
    return static_cast<std::size_t>((cx * dims_[1] + cy) * dims_[2] + cz);
  };
  const std::size_t ncells = static_cast<std::size_t>(dims_[0]) *
                             static_cast<std::size_t>(dims_[1]) *
                             static_cast<std::size_t>(dims_[2]);
  cell_start_.assign(ncells + 1, 0);
  for (int i : placed) ++cell_start_[cell_of(positions_[static_cast<std::size_t>(i)]) + 1];
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_atoms_.resize(placed.size());
  std::vector<int> fill(cell_start_.begin(), cell_start_.end() - 1);
  for (int i : placed) {
    const std::size_t c = cell_of(positions_[static_cast<std::size_t>(i)]);
    cell_atoms_[static_cast<std::size_t>(fill[c]++)] = i;
  }
}

bool NeighborList::cell_range(const mol::Vec3& p, int lo[3], int hi[3]) const {
  const double v[3] = {p.x, p.y, p.z};
  for (int a = 0; a < 3; ++a) {
    const double c = axis_cell(v[a]) - origin_cell_[a];
    const double first = std::max(c - 1.0, 0.0);
    const double last = std::min(c + 1.0, static_cast<double>(dims_[a] - 1));
    // Also false for a NaN coordinate.
    if (!(first <= last)) return false;
    lo[a] = static_cast<int>(first);
    hi[a] = static_cast<int>(last);
  }
  return true;
}

void NeighborList::segment_candidates(const mol::Vec3& p, double x_end,
                                      std::vector<int>& out) const {
  out.clear();
  for_each_candidate(p, [&](int idx) {
    const mol::Vec3& a = positions_[static_cast<std::size_t>(idx)];
    double dx = 0.0;
    if (a.x < p.x) {
      dx = a.x - p.x;
    } else if (a.x > x_end) {
      dx = a.x - x_end;
    }
    const double dy = a.y - p.y;
    const double dz = a.z - p.z;
    if (dx * dx + dy * dy + dz * dz <= cutoff_sq_) out.push_back(idx);
  });
}

std::vector<std::pair<int, int>> intramolecular_pairs(const mol::Molecule& ligand,
                                                      const mol::TorsionTree& tree) {
  SCIDOCK_ASSERT_MSG(ligand.perceived(), "perceive() ligand before intramolecular_pairs()");
  const int n = ligand.atom_count();
  // Bond-distance BFS per atom; pairs at graph distance >= 3 interact.
  std::vector<std::pair<int, int>> pairs;
  std::vector<int> dist(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::fill(dist.begin(), dist.end(), -1);
    std::deque<int> queue{i};
    dist[static_cast<std::size_t>(i)] = 0;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      if (dist[static_cast<std::size_t>(u)] >= 3) continue;  // only need to prove < 3
      for (int v : ligand.neighbors(u)) {
        if (dist[static_cast<std::size_t>(v)] == -1) {
          dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
          queue.push_back(v);
        }
      }
    }
    for (int j = i + 1; j < n; ++j) {
      const int d = dist[static_cast<std::size_t>(j)];
      if ((d == -1 || d >= 3) && !tree.same_rigid_piece(i, j)) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

}  // namespace scidock::dock
