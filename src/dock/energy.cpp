#include "dock/energy.hpp"

#include <cmath>

#include "util/error.hpp"

namespace scidock::dock {

namespace {

/// The root-fragment centroid a random pose places, or the ligand centre
/// for a tree without a root.
mol::Vec3 placement_center(const mol::PreparedLigand& ligand,
                           const mol::Vec3& root_center) {
  return ligand.torsions.root_atoms().empty() ? ligand.molecule.center()
                                              : root_center;
}

}  // namespace

Ad4EnergyModel::Ad4EnergyModel(const GridMapSet& maps,
                               const mol::PreparedLigand& ligand,
                               Ad4Weights weights)
    : maps_(maps), ligand_(ligand), weights_(weights),
      tables_(Ad4PairTables::shared(weights)),
      reference_coords_(ligand.molecule.coordinates()),
      rotation_center_(ligand.torsions.root_center(reference_coords_)),
      reference_center_(placement_center(ligand, rotation_center_)) {
  SCIDOCK_REQUIRE(maps.scoring == ScoringFunction::Ad4,
                  "AD4 needs an AD4 map set, got a Vina one");
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
  for (const auto& [i, j] : intramolecular_pairs(ligand.molecule, ligand.torsions)) {
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
  const double* coulomb = tables_->coulomb_channel();
  const double* desolv = tables_->desolv_channel();
  for (const IntraPair& p : intra_pairs_) {
    const double d2 = mol::distance_sq(coords[static_cast<std::size_t>(p.i)],
                                       coords[static_cast<std::size_t>(p.j)]);
    if (d2 < Ad4PairTables::cutoff_sq()) {
      const lut::Bin bin = lut::bin(d2);
      e += lut::interpolate(p.row, bin) +
           p.qq * lut::interpolate(coulomb, bin) +
           p.solv * lut::interpolate(desolv, bin);
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
  ligand_.torsions.apply_into(reference_coords_, rotation_center_, pose.rigid,
                              pose.torsions, frames_, coords_);
  return intermolecular(coords_) + intramolecular(coords_);
}

double Ad4EnergyModel::feb(double inter) const {
  return inter + weights_.tors * static_cast<double>(ligand_.torsions.torsion_count());
}

std::vector<mol::Vec3> Ad4EnergyModel::coords_for(const DockPose& pose) const {
  return ligand_.torsions.apply(reference_coords_, pose.rigid, pose.torsions);
}

VinaEnergyModel::VinaEnergyModel(const GridMapSet& maps,
                                 const mol::PreparedLigand& ligand,
                                 VinaWeights weights)
    : maps_(maps), ligand_(ligand), weights_(weights),
      tables_(VinaPairTables::shared(weights)),
      reference_coords_(ligand.molecule.coordinates()),
      rotation_center_(ligand.torsions.root_center(reference_coords_)),
      reference_center_(placement_center(ligand, rotation_center_)) {
  SCIDOCK_REQUIRE(maps.scoring == ScoringFunction::Vina,
                  "Vina needs a Vina map set, got an AD4 one");
  atom_maps_.reserve(static_cast<std::size_t>(ligand.molecule.atom_count()));
  for (const mol::Atom& a : ligand.molecule.atoms()) {
    if (mol::vina_kind(a.ad_type).skip) {
      atom_maps_.push_back(nullptr);
      continue;
    }
    const GridMap* map = maps.affinity_for(a.ad_type);
    SCIDOCK_REQUIRE(map != nullptr, "missing Vina map for ligand atom type " +
                                        std::string(mol::ad_type_name(a.ad_type)));
    atom_maps_.push_back(map);
  }
  for (const auto& [i, j] : intramolecular_pairs(ligand.molecule, ligand.torsions)) {
    if (mol::vina_kind(ligand.molecule.atom(i).ad_type).skip) continue;
    if (mol::vina_kind(ligand.molecule.atom(j).ad_type).skip) continue;
    intra_pairs_.push_back({i, j, tables_->row(ligand.molecule.atom(i).ad_type,
                                               ligand.molecule.atom(j).ad_type)});
  }
}

double VinaEnergyModel::intermolecular(const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  for (std::size_t i = 0; i < atom_maps_.size(); ++i) {
    const mol::Vec3& p = coords[i];
    const TrilinearSampler s(maps_.box, p);
    // Vina confines the search to the box: out-of-box atoms incur a steep
    // harmonic pull-back, mirroring its boundary handling.
    if (!s.in_box()) {
      e += 10.0 * mol::distance_sq(p, maps_.box.center);
    } else if (atom_maps_[i] != nullptr) {
      e += s.apply(*atom_maps_[i]);
    }
  }
  return e;
}

double VinaEnergyModel::exact_intermolecular(
    const mol::Molecule& receptor, const std::vector<mol::Vec3>& coords) const {
  double e = 0.0;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const mol::AdType t = ligand_.molecule.atom(static_cast<int>(i)).ad_type;
    for (const mol::Atom& r : receptor.atoms()) {
      e += tables_->pair_energy(t, r.ad_type, mol::distance_sq(coords[i], r.pos));
    }
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
  ligand_.torsions.apply_into(reference_coords_, rotation_center_, pose.rigid,
                              pose.torsions, frames_, coords_);
  return intermolecular(coords_) + intramolecular(coords_);
}

double VinaEnergyModel::feb(double inter) const {
  return vina_affinity(inter, ligand_.torsions.torsion_count(), weights_);
}

std::vector<mol::Vec3> VinaEnergyModel::coords_for(const DockPose& pose) const {
  return ligand_.torsions.apply(reference_coords_, pose.rigid, pose.torsions);
}

}  // namespace scidock::dock
