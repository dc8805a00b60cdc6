#include "dock/autogrid.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::dock {

namespace {
constexpr double kCutoff = 8.0;  ///< Å interaction cutoff (AutoGrid's NBC)
// The LUT domain ends at lut::kCutoff; a wider neighbour cutoff would
// hand the interpolator out-of-domain squared distances.
static_assert(kCutoff <= lut::kCutoff,
              "AutoGrid cutoff exceeds the energy-LUT domain");
/// Screening GPF canonicalisation: half-extent floor and rounding step, Å.
constexpr double kScreeningMinHalfExtent = 12.0;
constexpr double kScreeningQuantum = 4.0;
}  // namespace

GridMapCalculator::GridMapCalculator(const mol::Molecule& receptor,
                                     SlabObserver slab_observer)
    : receptor_(receptor), slab_observer_(std::move(slab_observer)),
      tables_(Ad4PairTables::shared(Ad4Weights{})),
      vina_tables_(VinaPairTables::shared(VinaWeights{})),
      neighbors_(receptor, kCutoff) {
  SCIDOCK_ASSERT_MSG(receptor.perceived(), "prepare the receptor before AutoGrid");
  const int n = receptor.atom_count();
  charge_.reserve(static_cast<std::size_t>(n));
  volume_.reserve(static_cast<std::size_t>(n));
  type_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const mol::Atom& a = receptor.atom(i);
    charge_.push_back(a.partial_charge);
    volume_.push_back(mol::ad_type_params(a.ad_type).volume);
    type_.push_back(a.ad_type);
  }
}

GridMapSet GridMapCalculator::calculate(const GridBox& box,
                                        const std::vector<mol::AdType>& ligand_types,
                                        ScoringFunction scoring) const {
  const bool ad4 = scoring == ScoringFunction::Ad4;
  GridMapSet set;
  set.box = box;
  set.scoring = scoring;
  if (ad4) {
    set.electrostatic = GridMap(box, "e");
    set.desolvation = GridMap(box, "d");
  }
  for (mol::AdType t : ligand_types) {
    if (!ad4 && mol::vina_kind(t).skip) continue;
    set.affinity.emplace_back(t, GridMap(box, std::string(mol::ad_type_name(t))));
  }

  // Hoist every receptor atom's per-ligand-type row (AD4 vdW/H-bond or the
  // Vina pair term) to a flat pointer array. Every table shares the LUT
  // resolution, so the inner loop computes one bin per (point, atom)
  // squared distance and reads the Coulomb, desolvation and every type
  // channel with it.
  const std::size_t natoms = type_.size();
  const std::size_t ntypes = set.affinity.size();
  std::vector<const double*> type_rows(natoms * ntypes);
  for (std::size_t a = 0; a < natoms; ++a) {
    for (std::size_t t = 0; t < ntypes; ++t) {
      const mol::AdType lt = set.affinity[t].first;
      type_rows[a * ntypes + t] = ad4 ? tables_->vdw_row(lt, type_[a])
                                     : vina_tables_->row(lt, type_[a]);
    }
  }
  const double* coulomb = tables_->coulomb_channel();
  const double* desolv = tables_->desolv_channel();

  const mol::Vec3 origin = box.origin();

  std::vector<double> typed(ntypes);
  for (int iz = 0; iz < box.npts[2]; ++iz) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int iy = 0; iy < box.npts[1]; ++iy) {
      for (int ix = 0; ix < box.npts[0]; ++ix) {
        const mol::Vec3 p{origin.x + ix * box.spacing,
                          origin.y + iy * box.spacing,
                          origin.z + iz * box.spacing};
        double elec = 0.0;
        double dsolv = 0.0;
        std::fill(typed.begin(), typed.end(), 0.0);

        neighbors_.for_each_within(p, [&](int ai, double d2) {
          const auto a = static_cast<std::size_t>(ai);
          const lut::Bin bin = lut::bin(d2);
          if (ad4) {
            elec += charge_[a] * lut::interpolate(coulomb, bin);
            // Receptor-side volume term only; the ligand atom's solvation
            // parameter (solpar_i + qasp*|q_i|) multiplies in at sample
            // time (AD4 map semantics; the product is O(0.01) per contact).
            dsolv += volume_[a] * lut::interpolate(desolv, bin);
          }
          const double* const* rows = type_rows.data() + a * ntypes;
          for (std::size_t t = 0; t < ntypes; ++t) {
            typed[t] += lut::interpolate(rows[t], bin);
          }
        });

        if (ad4) {
          set.electrostatic.at(ix, iy, iz) = elec;
          set.desolvation.at(ix, iy, iz) = dsolv;
        }
        for (std::size_t t = 0; t < ntypes; ++t) {
          set.affinity[t].second.at(ix, iy, iz) = typed[t];
        }
      }
    }

    if (slab_observer_) {
      slab_observer_(iz, std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }
  }
  return set;
}

GridMapSet ligand_maps(const mol::Molecule& receptor,
                       const mol::Molecule& ligand, const GridBox& box,
                       ScoringFunction scoring) {
  mol::Molecule lig = ligand;  // ad_types_present needs perceive()
  lig.perceive();
  return GridMapCalculator(receptor).calculate(box, lig.ad_types_present(),
                                               scoring);
}

std::string GridParameterFile::to_text() const {
  std::string out;
  out += strformat("npts %d %d %d\n", box.npts[0] - 1, box.npts[1] - 1,
                   box.npts[2] - 1);
  out += "gridfld receptor.maps.fld\n";
  out += strformat("spacing %.4f\n", box.spacing);
  std::string types;
  for (mol::AdType t : ligand_types) {
    if (!types.empty()) types += ' ';
    types += std::string(mol::ad_type_name(t));
  }
  out += "ligand_types " + types + "\n";
  out += "receptor " + receptor_file + "\n";
  out += strformat("gridcenter %.3f %.3f %.3f\n", box.center.x, box.center.y,
                   box.center.z);
  for (mol::AdType t : ligand_types) {
    out += "map receptor." + std::string(mol::ad_type_name(t)) + ".map\n";
  }
  out += "elecmap receptor.e.map\ndsolvmap receptor.d.map\n";
  out += "dielectric -0.1465\n";
  return out;
}

GridParameterFile GridParameterFile::parse(std::string_view text) {
  GridParameterFile gpf;
  std::istringstream in{std::string(text)};
  std::string line;
  bool saw_npts = false;
  while (std::getline(in, line)) {
    const auto fields = split_ws(line);
    if (fields.empty() || fields[0][0] == '#') continue;
    if (fields[0] == "npts" && fields.size() >= 4) {
      gpf.box.npts = {parse_grid_points(fields[1], "gpf npts"),
                      parse_grid_points(fields[2], "gpf npts"),
                      parse_grid_points(fields[3], "gpf npts")};
      saw_npts = true;
    } else if (fields[0] == "spacing" && fields.size() >= 2) {
      gpf.box.spacing = parse_grid_spacing(fields[1], "gpf spacing");
    } else if (fields[0] == "gridcenter" && fields.size() >= 4) {
      gpf.box.center = {parse_double(fields[1], "gpf center"),
                        parse_double(fields[2], "gpf center"),
                        parse_double(fields[3], "gpf center")};
    } else if (fields[0] == "ligand_types") {
      for (std::size_t i = 1; i < fields.size(); ++i) {
        const auto t = mol::ad_type_from_name(fields[i]);
        if (!t) throw ParseError("GPF", "unknown ligand type " + fields[i]);
        gpf.ligand_types.push_back(*t);
      }
    } else if (fields[0] == "receptor" && fields.size() >= 2) {
      gpf.receptor_file = fields[1];
    }
  }
  if (!saw_npts) throw ParseError("GPF", "missing npts record");
  return gpf;
}

GridParameterFile make_gpf(const mol::Molecule& receptor,
                           const mol::Molecule& ligand, double box_padding,
                           double spacing) {
  GridParameterFile gpf;
  const double half_extent =
      std::max(ligand.radius_of_gyration() * 2.0 + box_padding, 8.0);
  gpf.box = GridBox::around(receptor.center(), half_extent, spacing);
  {
    mol::Molecule lig = ligand;
    lig.perceive();
    gpf.ligand_types = lig.ad_types_present();
  }
  gpf.receptor_file = receptor.name() + ".pdbqt";
  gpf.ligand_file = ligand.name() + ".pdbqt";
  return gpf;
}

GridParameterFile make_screening_gpf(const mol::Molecule& receptor,
                                     const mol::Molecule& ligand,
                                     double box_padding, double spacing) {
  GridParameterFile gpf = make_gpf(receptor, ligand, box_padding, spacing);
  double half_extent =
      std::max(ligand.radius_of_gyration() * 2.0 + box_padding, 8.0);
  // Canonicalise: floor + round up to the step so every drug-like
  // ligand of a campaign lands on the same box for a given receptor.
  half_extent = std::max(half_extent, kScreeningMinHalfExtent);
  half_extent = std::ceil(half_extent / kScreeningQuantum) * kScreeningQuantum;
  gpf.box = GridBox::around(receptor.center(), half_extent, spacing);
  gpf.ligand_types = screening_ligand_types();
  return gpf;
}

const std::vector<mol::AdType>& screening_ligand_types() {
  static const std::vector<mol::AdType> types = [] {
    std::vector<mol::AdType> out;
    for (int i = 0; i < mol::kAdTypeCount; ++i) {
      const auto t = static_cast<mol::AdType>(i);
      if (mol::ad_type_params(t).supported) out.push_back(t);
    }
    return out;
  }();
  return types;
}

}  // namespace scidock::dock
