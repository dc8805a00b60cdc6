#include "dock/energy.hpp"

#include <cmath>

#include "util/error.hpp"

namespace scidock::dock {

namespace {

mol::Vec3 root_center(const mol::PreparedLigand& ligand) {
  std::vector<mol::Vec3> pts;
  for (int i : ligand.torsions.root_atoms()) {
    pts.push_back(ligand.molecule.atom(i).pos);
  }
  if (pts.empty()) return ligand.molecule.center();
  return mol::centroid(pts);
}

}  // namespace

Ad4EnergyModel::Ad4EnergyModel(const GridMapSet& maps,
                               const mol::PreparedLigand& ligand,
                               Ad4Weights weights)
    : maps_(maps), ligand_(ligand), weights_(weights),
      tables_(Ad4PairTables::shared(weights)),
      reference_coords_(ligand.molecule.coordinates()),
      reference_center_(root_center(ligand)) {
  // Fused sampling assumes every map shares the set's box; AutoGrid
  // guarantees this, and the map-file round trip preserves it.
  SCIDOCK_ASSERT(maps_.electrostatic.box().npts == maps_.box.npts &&
                 maps_.desolvation.box().npts == maps_.box.npts);
  constexpr double kQasp = 0.01097;
  channels_.reserve(static_cast<std::size_t>(ligand.molecule.atom_count()));
  for (int i = 0; i < ligand.molecule.atom_count(); ++i) {
    const mol::Atom& a = ligand.molecule.atom(i);
    const GridMap* aff = maps_.affinity_for(a.ad_type);
    // Every ligand type must have a map, otherwise the GPF was wrong.
    SCIDOCK_REQUIRE(aff != nullptr,
                    "missing AutoGrid map for ligand atom type " +
                        std::string(mol::ad_type_name(a.ad_type)));
    const auto& pa = mol::ad_type_params(a.ad_type);
    channels_.push_back({aff, a.partial_charge,
                         pa.solpar + kQasp * std::abs(a.partial_charge)});
  }
  for (const auto& [i, j] : intramolecular_pairs(ligand.molecule)) {
    const mol::Atom& ai = ligand.molecule.atom(i);
    const mol::Atom& aj = ligand.molecule.atom(j);
    const auto& pi = mol::ad_type_params(ai.ad_type);
    const auto& pj = mol::ad_type_params(aj.ad_type);
    const double qi = ai.partial_charge;
    const double qj = aj.partial_charge;
    intra_pairs_.push_back(
        {i, j, ai.ad_type, aj.ad_type, qi, qj, qi * qj,
         (pi.solpar + kQasp * std::abs(qi)) * pj.volume +
             (pj.solpar + kQasp * std::abs(qj)) * pi.volume,
         tables_->vdw_row(ai.ad_type, aj.ad_type)});
  }
}

double Ad4EnergyModel::intermolecular(const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  const std::size_t n = channels_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const AtomChannels& ch = channels_[i];
    // One cell/weight computation feeds all three maps (they share the
    // AutoGrid box), where the unfused path paid the origin/index math
    // three times per atom.
    const TrilinearSampler s(maps_.box, coords[i]);
    if (s.in_box()) {
      e += s.apply(*ch.affinity);
      e += ch.charge * s.apply(maps_.electrostatic);
      e += ch.solv * s.apply(maps_.desolvation);
    } else {
      e += GridMap::kOutOfBoxPenalty;
      e += ch.charge * GridMap::kOutOfBoxPenalty;
      e += ch.solv * GridMap::kOutOfBoxPenalty;
    }
  }
  return e;
}

double Ad4EnergyModel::intramolecular(const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  const Ad4PairTables& t = *tables_;
  for (const IntraPair& p : intra_pairs_) {
    const double d2 = mol::distance_sq(coords[static_cast<std::size_t>(p.i)],
                                       coords[static_cast<std::size_t>(p.j)]);
    if (d2 < Ad4PairTables::cutoff_sq()) {
      e += t.vdw_hbond(p.ti, p.tj, d2) + p.qq * t.coulomb_factor(d2) +
           p.solv * t.desolv_gauss(d2);
    } else {
      // Intramolecular pairs in extended ligands exceed the table domain;
      // the analytic tail is cheap and already near zero out there.
      e += ad4_pair_energy(p.ti, p.qi, p.tj, p.qj, std::sqrt(d2), weights_);
    }
  }
  return e;
}

double Ad4EnergyModel::operator()(const DockPose& pose) const {
  ++evaluations_;
  const std::vector<mol::Vec3> coords = coords_for(pose);
  return intermolecular(coords) + intramolecular(coords);
}

double Ad4EnergyModel::feb(double inter) const {
  return inter + weights_.tors * static_cast<double>(ligand_.torsions.torsion_count());
}

std::vector<mol::Vec3> Ad4EnergyModel::coords_for(const DockPose& pose) const {
  return ligand_.torsions.apply(reference_coords_, pose.rigid, pose.torsions);
}

VinaEnergyModel::VinaEnergyModel(const mol::PreparedReceptor& receptor,
                                 const mol::PreparedLigand& ligand,
                                 const GridBox& box, VinaWeights weights)
    : receptor_(receptor), ligand_(ligand), box_(box), weights_(weights),
      tables_(VinaPairTables::shared(weights)),
      neighbors_(receptor.molecule, 8.0),
      reference_coords_(ligand.molecule.coordinates()),
      reference_center_(root_center(ligand)) {
  for (const auto& [i, j] : intramolecular_pairs(ligand.molecule)) {
    if (mol::vina_kind(ligand.molecule.atom(i).ad_type).skip) continue;
    if (mol::vina_kind(ligand.molecule.atom(j).ad_type).skip) continue;
    intra_pairs_.push_back({i, j, tables_->row(ligand.molecule.atom(i).ad_type,
                                               ligand.molecule.atom(j).ad_type)});
  }
  lig_rows_.resize(static_cast<std::size_t>(ligand.molecule.atom_count()) *
                   static_cast<std::size_t>(mol::kAdTypeCount));
  for (int i = 0; i < ligand.molecule.atom_count(); ++i) {
    for (int t = 0; t < mol::kAdTypeCount; ++t) {
      lig_rows_[static_cast<std::size_t>(i) * mol::kAdTypeCount +
                static_cast<std::size_t>(t)] =
          tables_->row(ligand.molecule.atom(i).ad_type,
                       static_cast<mol::AdType>(t));
    }
  }
  rec_types_.reserve(static_cast<std::size_t>(receptor.molecule.atom_count()));
  for (int ri = 0; ri < receptor.molecule.atom_count(); ++ri) {
    rec_types_.push_back(static_cast<int>(receptor.molecule.atom(ri).ad_type));
  }
}

double VinaEnergyModel::intermolecular(const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  for (int i = 0; i < ligand_.molecule.atom_count(); ++i) {
    const mol::Vec3& p = coords[static_cast<std::size_t>(i)];
    // Vina confines the search to the box: out-of-box atoms incur a steep
    // harmonic pull-back, mirroring its boundary handling.
    if (!box_.contains(p)) {
      const mol::Vec3 c = box_.center;
      e += 10.0 * mol::distance_sq(p, c);
      continue;
    }
    // Squared distances come straight from the cell list (the table is
    // indexed by r², so no sqrt). Two partial sums alternating per
    // neighbour: the association of the former two-lane SIMD loop, kept so
    // energies stay bit-identical to it.
    const double* const* rows_for_atom =
        lig_rows_.data() + static_cast<std::size_t>(i) * mol::kAdTypeCount;
    double acc[2] = {0.0, 0.0};
    std::size_t k = 0;
    neighbors_.for_each_within(p, [&](int ri, double d2) {
      const double* row =
          rows_for_atom[rec_types_[static_cast<std::size_t>(ri)]];
      acc[k++ & 1] += d2 < lut::kCutoffSq ? lut::interpolate(row, d2) : 0.0;
    });
    e += acc[0] + acc[1];
  }
  return e;
}

double VinaEnergyModel::intramolecular(const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  for (const VinaIntraPair& p : intra_pairs_) {
    const double d2 = mol::distance_sq(coords[static_cast<std::size_t>(p.i)],
                                       coords[static_cast<std::size_t>(p.j)]);
    if (d2 < lut::kCutoffSq) e += lut::interpolate(p.row, d2);
  }
  return e;
}

double VinaEnergyModel::operator()(const DockPose& pose) const {
  ++evaluations_;
  const std::vector<mol::Vec3> coords = coords_for(pose);
  return intermolecular(coords) + intramolecular(coords);
}

double VinaEnergyModel::feb(double inter) const {
  return vina_affinity(inter, ligand_.torsions.torsion_count(), weights_);
}

std::vector<mol::Vec3> VinaEnergyModel::coords_for(const DockPose& pose) const {
  return ligand_.torsions.apply(reference_coords_, pose.rigid, pose.torsions);
}

}  // namespace scidock::dock
