#include "dock/autogrid.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <set>
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

/// The AD types present in `ligand`: a perceived molecule keeps the types
/// it carries (a PDBQT's are authoritative), any other is typed on a copy.
std::vector<mol::AdType> types_present(const mol::Molecule& ligand) {
  if (ligand.perceived()) return ligand.ad_types_present();
  mol::Molecule lig = ligand;
  lig.perceive();
  return lig.ad_types_present();
}
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

namespace {

/// One receptor type's channel slice, sample-major: for each of the
/// kEntries + 1 LUT samples, that sample of every channel. A contact's
/// two samples of every channel then sit in two adjacent rows of nch
/// doubles (a few cache lines) where the tables keep each channel in its
/// own 32 KB row; lut::lerp blends them with the tables' association.
std::vector<double> channel_slice(const std::vector<const double*>& rows) {
  const std::size_t nch = rows.size();
  constexpr std::size_t kSamples = lut::kEntries + 1;
  std::vector<double> slice(kSamples * nch);
  for (std::size_t i = 0; i < kSamples; ++i) {
    for (std::size_t c = 0; c < nch; ++c) slice[i * nch + c] = rows[c][i];
  }
  return slice;
}

/// A receptor atom near one run of grid points on an x-row, with the
/// row's y and z distance terms hoisted: the point loop adds dx² to them
/// in distance_sq's order, so r² keeps its bits.
struct RowNeighbor {
  double x;
  double dy2;
  double dz2;
  double charge;
  double volume;
  const double* slice;  ///< the atom's receptor-type channel slice
};

/// A neighbour within the cutoff of one grid point: its slice row at the
/// point's LUT bin (the next row holds the bin's upper samples), and the
/// blend fraction.
struct Contact {
  const double* row;
  double t;
  double charge;
  double volume;
};

/// Ask for the `bytes` (> 0) at `row` ahead of the channel sweep. The rows
/// of a point's contacts are scattered over megabytes of slices (one per
/// receptor type), and without this the sweep waits on each contact's
/// misses in turn.
void prefetch_row(const double* row, std::size_t bytes) {
  const char* p = reinterpret_cast<const char*>(row);
  constexpr std::size_t kCacheLine = 64;
  for (std::size_t off = 0; off < bytes; off += kCacheLine) {
    __builtin_prefetch(p + off);
  }
  __builtin_prefetch(p + bytes - 1);
}

/// The per-point kernel over the points [begin, end) of one row run. It
/// first collects each point's contacts in `neighbors` order (the order
/// of NeighborList::for_each_within), then sweeps every channel of each.
/// An AD4 set (`ad4`) reads the electrostatic and desolvation channels
/// (slice channels 0 and 1) ahead of the typed ones.
void sweep_run(bool ad4, const std::vector<RowNeighbor>& neighbors,
               const std::vector<double>& xs, int begin, int end,
               double cutoff_sq, std::size_t nch, std::size_t row_base,
               double* elec_out, double* dsolv_out,
               const std::vector<double*>& typed_out,
               std::vector<double>& typed, std::vector<Contact>& contacts) {
  const std::size_t first_typed = ad4 ? 2 : 0;
  const std::size_t ntypes = typed.size();
  // The bin's lower and upper samples.
  const std::size_t row_bytes = 2 * nch * sizeof(double);
  double* acc = typed.data();
  for (int ix = begin; ix < end; ++ix) {
    const double px = xs[static_cast<std::size_t>(ix)];
    contacts.clear();
    for (const RowNeighbor& nb : neighbors) {
      const double dx = nb.x - px;
      const double d2 = dx * dx + nb.dy2 + nb.dz2;
      if (!(d2 <= cutoff_sq)) continue;
      const lut::Bin bin = lut::bin(d2);
      const double* row = nb.slice + static_cast<std::size_t>(bin.lo) * nch;
      prefetch_row(row, row_bytes);
      contacts.push_back({row, bin.t, nb.charge, nb.volume});
    }
    double elec = 0.0;
    double dsolv = 0.0;
    std::fill(typed.begin(), typed.end(), 0.0);
    for (const Contact& c : contacts) {
      const double* lo = c.row;
      const double* hi = c.row + nch;
      if (ad4) {
        elec += c.charge * lut::lerp(lo[0], hi[0], c.t);
        // Receptor-side volume term only; the ligand atom's solvation
        // parameter (solpar_i + qasp*|q_i|) multiplies in at sample
        // time (AD4 map semantics; the product is O(0.01) per contact).
        dsolv += c.volume * lut::lerp(lo[1], hi[1], c.t);
      }
      for (std::size_t t = 0; t < ntypes; ++t) {
        acc[t] += lut::lerp(lo[first_typed + t], hi[first_typed + t], c.t);
      }
    }
    const std::size_t at = row_base + static_cast<std::size_t>(ix);
    if (ad4) {
      elec_out[at] = elec;
      dsolv_out[at] = dsolv;
    }
    for (std::size_t t = 0; t < ntypes; ++t) typed_out[t][at] = acc[t];
  }
}

}  // namespace

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

  // One channel slice per receptor type present (channel_slice): AD4's
  // Coulomb and desolvation channels, then the AD4 vdW/H-bond or Vina
  // pair-term row of each map's ligand type. Every table shares the LUT
  // resolution, so one bin per (point, atom) r² reads every channel.
  const std::size_t ntypes = set.affinity.size();
  const std::size_t nch = (ad4 ? 2 : 0) + ntypes;
  std::array<std::vector<double>, mol::kAdTypeCount> slices;
  std::vector<const double*> rows;
  for (mol::AdType rt : type_) {
    std::vector<double>& slice = slices[static_cast<std::size_t>(rt)];
    if (!slice.empty() || nch == 0) continue;
    rows.clear();
    if (ad4) {
      rows.push_back(tables_->coulomb_channel());
      rows.push_back(tables_->desolv_channel());
    }
    for (const auto& entry : set.affinity) {
      rows.push_back(ad4 ? tables_->vdw_row(entry.first, rt)
                         : vina_tables_->row(entry.first, rt));
    }
    slice = channel_slice(rows);
  }

  // Grid x coordinates and the runs of points sharing a neighbour-list
  // cell are the same on every row.
  const mol::Vec3 origin = box.origin();
  const int nx = box.npts[0];
  std::vector<double> xs(static_cast<std::size_t>(nx));
  std::vector<std::pair<int, int>> runs;
  for (int ix = 0; ix < nx; ++ix) {
    xs[static_cast<std::size_t>(ix)] = origin.x + ix * box.spacing;
    if (ix == 0 || neighbors_.axis_cell(xs[static_cast<std::size_t>(ix)]) !=
                       neighbors_.axis_cell(xs[static_cast<std::size_t>(ix - 1)])) {
      runs.emplace_back(ix, ix);
    }
    runs.back().second = ix + 1;
  }
  // A set without channels (Vina, hydrogen types only) sums nothing.
  if (nch == 0) runs.clear();

  double* elec_out = ad4 ? set.electrostatic.values().data() : nullptr;
  double* dsolv_out = ad4 ? set.desolvation.values().data() : nullptr;
  std::vector<double*> typed_out;
  for (auto& entry : set.affinity) typed_out.push_back(entry.second.values().data());
  const double cutoff_sq = neighbors_.cutoff() * neighbors_.cutoff();

  std::vector<int> candidates;
  std::vector<RowNeighbor> row_neighbors;
  std::vector<double> typed(ntypes);
  std::vector<Contact> contacts;
  for (int iz = 0; iz < box.npts[2]; ++iz) {
    const auto t0 = std::chrono::steady_clock::now();
    const double pz = origin.z + iz * box.spacing;
    for (int iy = 0; iy < box.npts[1]; ++iy) {
      const double py = origin.y + iy * box.spacing;
      const std::size_t row_base =
          static_cast<std::size_t>(nx) *
          (static_cast<std::size_t>(iy) +
           static_cast<std::size_t>(box.npts[1]) * static_cast<std::size_t>(iz));
      for (const auto& [begin, end] : runs) {
        // The atoms for_each_within would visit for this run, in its
        // order, less those out of reach of the whole run.
        neighbors_.segment_candidates(
            {xs[static_cast<std::size_t>(begin)], py, pz},
            xs[static_cast<std::size_t>(end - 1)], candidates);
        row_neighbors.clear();
        for (int ai : candidates) {
          const auto a = static_cast<std::size_t>(ai);
          const mol::Vec3& pos = neighbors_.position(ai);
          const double dy = pos.y - py;
          const double dz = pos.z - pz;
          row_neighbors.push_back(
              {pos.x, dy * dy, dz * dz, charge_[a], volume_[a],
               slices[static_cast<std::size_t>(type_[a])].data()});
        }
        sweep_run(ad4, row_neighbors, xs, begin, end, cutoff_sq, nch,
                  row_base, elec_out, dsolv_out, typed_out, typed, contacts);
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
  return GridMapCalculator(receptor).calculate(box, types_present(ligand),
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
      gpf.box.center = {parse_finite_double(fields[1], "gpf center"),
                        parse_finite_double(fields[2], "gpf center"),
                        parse_finite_double(fields[3], "gpf center")};
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
  gpf.ligand_types = types_present(ligand);
  gpf.receptor_file = receptor.name() + ".pdbqt";
  gpf.ligand_file = ligand.name() + ".pdbqt";
  return gpf;
}

GridParameterFile make_screening_gpf(const mol::Molecule& receptor,
                                     const mol::Molecule& ligand,
                                     double box_padding, double spacing,
                                     const std::vector<mol::AdType>& census) {
  GridParameterFile gpf = make_gpf(receptor, ligand, box_padding, spacing);
  double half_extent =
      std::max(ligand.radius_of_gyration() * 2.0 + box_padding, 8.0);
  // Canonicalise: floor + round up to the step so every drug-like
  // ligand of a campaign lands on the same box for a given receptor.
  half_extent = std::max(half_extent, kScreeningMinHalfExtent);
  half_extent = std::ceil(half_extent / kScreeningQuantum) * kScreeningQuantum;
  gpf.box = GridBox::around(receptor.center(), half_extent, spacing);
  // The census united with the ligand's own types, in type order: every
  // atom of this ligand has its map even where the census misses a type.
  std::set<mol::AdType> types(census.begin(), census.end());
  types.insert(gpf.ligand_types.begin(), gpf.ligand_types.end());
  gpf.ligand_types.assign(types.begin(), types.end());
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
