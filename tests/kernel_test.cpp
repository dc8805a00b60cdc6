// Kernel-equivalence suite (ctest -L kernels): the docking hot-path
// rewrite of DESIGN.md §10 must not change results.
//   - radial LUTs track the analytic scoring terms within a documented
//     tolerance (and exactly reproduce clamp/cutoff behaviour);
//   - fused trilinear sampling is bit-identical to per-map sampling;
//   - AutoGrid's AD4 and Vina channel sweeps equal brute-force sums of
//     the pair tables over every receptor atom (also at the cutoff along
//     a row, past the receptor's cells, at negative coordinates and for
//     one atom), their map bytes on pipeline receptors match pinned
//     digests, Vina's map energy of a pose stays within a measured bound
//     of the exact sum, and every mode Vina reports carries the exact sum;
//   - an energy model's objective is exactly the intermolecular plus
//     intramolecular energy of coords_for(pose);
//   - the torsion tree's per-piece frames match a sequential quaternion
//     reference, the intramolecular pair list drops exactly the pairs
//     whose distance no torsion changes, and evaluating one shared
//     ligand on four threads keeps every bit;
//   - AutoGrid reports every z-slab to its observer, and scoring a pose
//     for the report does not count as an energy evaluation;
//   - the single-flight grid-map cache computes once per key, propagates
//     exceptions, and leaves pipeline outputs (FEB/RMSD, map files, every
//     DLG, Vina log and pose file of a screen running both engines)
//     byte-identical to cache-off runs at 1 and 4 threads;
//   - the screening GPF's type set is the campaign's ligand-type census,
//     which equals the prepared types of the 42 Table 2 ligands; a ligand
//     outside it, or a census that lost a file to a read fault, still
//     docks byte-identically and loses no tuple.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "chaos/invariants.hpp"
#include "data/generator.hpp"
#include "data/table2.hpp"
#include "dock/autogrid.hpp"
#include "dock/conformation.hpp"
#include "dock/energy.hpp"
#include "dock/energy_lut.hpp"
#include "dock/engine.hpp"
#include "dock/grid.hpp"
#include "dock/scoring.hpp"
#include "dock/vina.hpp"
#include "mol/io_mol2.hpp"
#include "mol/io_pdb.hpp"
#include "mol/io_pdbqt.hpp"
#include "mol/io_sdf.hpp"
#include "mol/prepare.hpp"
#include "obs/obs.hpp"
#include "scidock/experiment.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "vfs/vfs.hpp"

namespace scidock::dock {
namespace {

using mol::AdType;

// Documented LUT accuracy bound (energy_lut.hpp): interpolation against
// the analytic path stays within 2e-3 kcal/mol absolute or 0.5% relative,
// whichever is looser. The GA/MC search acts on energy differences an
// order of magnitude above this.
bool within_tolerance(double lut, double analytic) {
  const double err = std::abs(lut - analytic);
  return err <= 2e-3 || err <= 5e-3 * std::abs(analytic);
}

TEST(EnergyLut, Ad4PairEnergyMatchesAnalytic) {
  const Ad4Weights w;
  const auto tables = Ad4PairTables::shared(w);
  const struct {
    AdType ti, tj;
    double qi, qj;
  } pairs[] = {
      {AdType::C, AdType::C, 0.1, -0.2},    // plain vdW
      {AdType::C, AdType::OA, 0.2, -0.35},  // polar contact
      {AdType::HD, AdType::OA, 0.16, -0.4}, // H-bond 12-10 well
      {AdType::N, AdType::HD, -0.3, 0.16},
      {AdType::SA, AdType::S, -0.1, 0.05},
      {AdType::A, AdType::NA, 0.0, -0.25},
  };
  double max_err = 0.0;
  for (const auto& p : pairs) {
    for (double r = 0.1; r <= 8.0; r += 0.0103) {
      const double analytic = ad4_pair_energy(p.ti, p.qi, p.tj, p.qj, r, w);
      const double lut = tables->pair_energy(p.ti, p.qi, p.tj, p.qj, r * r);
      EXPECT_TRUE(within_tolerance(lut, analytic))
          << mol::ad_type_name(p.ti) << "-" << mol::ad_type_name(p.tj)
          << " at r=" << r << ": lut=" << lut << " analytic=" << analytic;
      max_err = std::max(max_err, std::abs(lut - analytic));
    }
  }
  EXPECT_GT(max_err, 0.0);  // the table really is an approximation
}

TEST(EnergyLut, Ad4AnalyticTailBeyondCutoff) {
  const Ad4Weights w;
  const auto tables = Ad4PairTables::shared(w);
  // Intramolecular pairs in extended ligands exceed 8 Å; past the table
  // domain the LUT object falls back to the exact analytic path. Radii
  // chosen so sqrt(r * r) == r exactly.
  for (double r : {8.0, 10.0, 16.0, 40.0}) {
    EXPECT_DOUBLE_EQ(tables->pair_energy(AdType::C, 0.2, AdType::OA, -0.3, r * r),
                     ad4_pair_energy(AdType::C, 0.2, AdType::OA, -0.3, r, w));
  }
  // AutoGrid's neighbour list includes r² == kCutoffSq and reads the
  // channels there directly: the top-bin clamp lands on the last sample,
  // which is the analytic term at 8 Å.
  const lut::Bin top = lut::bin(lut::kCutoffSq);
  EXPECT_EQ(top.lo, lut::kEntries - 1);
  EXPECT_EQ(top.t, 1.0);
  EXPECT_DOUBLE_EQ(tables->vdw_hbond(AdType::C, AdType::OA, lut::kCutoffSq),
                   ad4_vdw_hbond(AdType::C, AdType::OA, 8.0, w));
  EXPECT_DOUBLE_EQ(tables->coulomb_factor(lut::kCutoffSq),
                   w.estat * 332.06 / (mehler_solmajer_dielectric(8.0) * 8.0));
}

TEST(EnergyLut, Ad4SubClampRegionConstant) {
  const Ad4Weights w;
  const auto tables = Ad4PairTables::shared(w);
  // The analytic path clamps r at 0.5 Å; the table reproduces the
  // constant plateau exactly (all samples below 0.25 Å² share r = 0.5).
  const double at_clamp = ad4_pair_energy(AdType::C, 0.3, AdType::C, 0.3, 0.5, w);
  for (double r2 : {0.0, 0.04, 0.12, 0.2}) {
    EXPECT_NEAR(tables->pair_energy(AdType::C, 0.3, AdType::C, 0.3, r2),
                at_clamp, 1e-12);
  }
}

TEST(EnergyLut, VinaPairEnergyMatchesAnalytic) {
  const VinaWeights w;
  const auto tables = VinaPairTables::shared(w);
  const std::pair<AdType, AdType> pairs[] = {
      {AdType::C, AdType::C},   {AdType::C, AdType::A},
      {AdType::OA, AdType::NA}, {AdType::OA, AdType::Mg},
      {AdType::Cl, AdType::Br}, {AdType::H, AdType::C},  // skip pair: 0
  };
  for (const auto& [ti, tj] : pairs) {
    for (double r = 0.3; r <= 8.5; r += 0.0107) {
      const double analytic = vina_pair_energy(ti, tj, r, w);
      const double lut = tables->pair_energy(ti, tj, r * r);
      // The last bin blends the truncation step at the 8 Å cutoff, so
      // allow the step magnitude there; elsewhere the standard bound
      // (the relative term covers the steep sub-overlap repulsion).
      const double err = std::abs(lut - analytic);
      EXPECT_TRUE(err <= (r > 7.9 ? 6e-3 : 2e-3) ||
                  err <= 5e-3 * std::abs(analytic))
          << mol::ad_type_name(ti) << "-" << mol::ad_type_name(tj)
          << " at r=" << r << ": lut=" << lut << " analytic=" << analytic;
    }
  }
  EXPECT_DOUBLE_EQ(tables->pair_energy(AdType::C, AdType::C, 64.0), 0.0);
  EXPECT_DOUBLE_EQ(tables->pair_energy(AdType::C, AdType::C, 100.0), 0.0);
}

TEST(EnergyLut, SharedRegistryReturnsSameTables) {
  const Ad4Weights w;
  EXPECT_EQ(Ad4PairTables::shared(w).get(), Ad4PairTables::shared(w).get());
  Ad4Weights other = w;
  other.vdw *= 2.0;
  EXPECT_NE(Ad4PairTables::shared(w).get(), Ad4PairTables::shared(other).get());
  const VinaWeights vw;
  EXPECT_EQ(VinaPairTables::shared(vw).get(), VinaPairTables::shared(vw).get());
}

// ------------------------------------------------------- fused sampling

TEST(TrilinearSampler, BitIdenticalToPerMapSample) {
  const GridBox box = GridBox::around({1.0, -2.0, 3.0}, 6.0, 0.5);
  Rng rng(11);
  GridMap a(box, "A"), b(box, "e"), c(box, "d");
  for (auto* m : {&a, &b, &c}) {
    for (double& v : m->values()) v = rng.uniform(-10.0, 10.0);
  }
  for (int i = 0; i < 500; ++i) {
    const mol::Vec3 p{rng.uniform(-3.0, 5.0), rng.uniform(-6.0, 2.0),
                      rng.uniform(-1.0, 7.0)};
    const TrilinearSampler s(box, p);
    ASSERT_TRUE(s.in_box());
    // One cell/weight computation, applied to three maps, must equal the
    // unfused per-map path bit for bit.
    EXPECT_DOUBLE_EQ(s.apply(a), a.sample(p));
    EXPECT_DOUBLE_EQ(s.apply(b), b.sample(p));
    EXPECT_DOUBLE_EQ(s.apply(c), c.sample(p));
  }
  const TrilinearSampler outside(box, {100, 100, 100});
  EXPECT_FALSE(outside.in_box());
}

// ------------------------------------------------- AutoGrid slab observer

data::GeneratorOptions tiny() {
  data::GeneratorOptions o;
  o.min_residues = 10;
  o.max_residues = 14;
  o.min_ligand_atoms = 8;
  o.max_ligand_atoms = 12;
  o.hg_fraction = 0.0;
  return o;
}

/// Stage `codes` as SDF files into `fs` and return their paths, the
/// ligand_file values of an experiment's input relation.
std::vector<std::string> staged_ligands(vfs::SharedFileSystem& fs,
                                        const std::vector<std::string>& codes,
                                        const data::GeneratorOptions& opts) {
  data::stage_dataset(fs, "/exp", {}, codes, opts);
  std::vector<std::string> paths;
  for (const std::string& code : codes) {
    paths.push_back("/exp/input/" + code + ".sdf");
  }
  return paths;
}

TEST(ParallelAutogrid, SlabObserverFiresOncePerSlab) {
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1OBS", tiny()));
  std::atomic<int> slabs{0};
  std::atomic<bool> negative{false};
  const GridMapCalculator calc(rec.molecule, [&](int iz, double seconds) {
    (void)iz;
    slabs.fetch_add(1);
    if (seconds < 0.0) negative.store(true);
  });
  const GridBox box = GridBox::around(rec.molecule.center(), 6.0, 0.75);
  calc.calculate(box, {AdType::C});
  EXPECT_EQ(slabs.load(), box.npts[2]);
  EXPECT_FALSE(negative.load());
}

// ------------------------------------------ kernels against brute force
//
// Both loops visit neighbours in cell-list order, the brute-force sums in
// atom order over every receptor atom, hence a relative bound. Snapping
// coordinates to multiples of 1/64 Å lets receptor atom 0 sit exactly on
// the 8 Å cutoff.

std::vector<mol::Vec3> snapped(std::vector<mol::Vec3> coords) {
  for (mol::Vec3& c : coords) {
    c = {std::round(c.x * 64.0) / 64.0, std::round(c.y * 64.0) / 64.0,
         std::round(c.z * 64.0) / 64.0};
  }
  return coords;
}

TEST(KernelBruteForce, AutogridPointMatchesSumOverReceptorAtoms) {
  mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1BRF", tiny()));
  std::vector<mol::Vec3> rec_coords = snapped(rec.molecule.coordinates());
  const GridBox box = GridBox::around(rec_coords[1], 2.0, 0.5);
  const int ix = 3, iy = 4, iz = 5;
  const mol::Vec3 p = box.origin() + mol::Vec3{ix * 0.5, iy * 0.5, iz * 0.5};
  rec_coords[0] = p + mol::Vec3{8.0, 0, 0};
  rec.molecule.set_coordinates(rec_coords);
  const GridMapSet maps =
      GridMapCalculator(rec.molecule).calculate(box, {AdType::C, AdType::OA});

  const auto tables = Ad4PairTables::shared(Ad4Weights{});
  double elec = 0.0, desolv = 0.0, oa = 0.0, scale = 1.0;
  int at_cutoff = 0, past_cutoff = 0;
  for (const mol::Atom& a : rec.molecule.atoms()) {
    const double d2 = mol::distance_sq(a.pos, p);
    at_cutoff += d2 == lut::kCutoffSq;
    past_cutoff += d2 > lut::kCutoffSq;
    if (d2 > lut::kCutoffSq) continue;
    const double terms[] = {
        a.partial_charge * tables->coulomb_factor(d2),
        mol::ad_type_params(a.ad_type).volume * tables->desolv_gauss(d2),
        tables->vdw_hbond(AdType::OA, a.ad_type, d2)};
    elec += terms[0];
    desolv += terms[1];
    oa += terms[2];
    for (double t : terms) scale += std::abs(t);
  }
  ASSERT_EQ(at_cutoff, 1);
  ASSERT_GT(past_cutoff, 0);
  EXPECT_NEAR(maps.electrostatic.at(ix, iy, iz), elec, 1e-9 * scale);
  EXPECT_NEAR(maps.desolvation.at(ix, iy, iz), desolv, 1e-9 * scale);
  EXPECT_NEAR(maps.affinity_for(AdType::OA)->at(ix, iy, iz), oa, 1e-9 * scale);
}

TEST(KernelBruteForce, VinaMapPointMatchesPairEnergySum) {
  mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1BRF", tiny()));
  std::vector<mol::Vec3> rec_coords = snapped(rec.molecule.coordinates());
  const GridBox box = GridBox::around(rec_coords[1], 2.0, 0.5);
  const int ix = 3, iy = 4, iz = 5;
  const mol::Vec3 p = box.origin() + mol::Vec3{ix * 0.5, iy * 0.5, iz * 0.5};
  rec_coords[0] = p + mol::Vec3{8.0, 0, 0};
  rec.molecule.set_coordinates(rec_coords);
  const GridMapSet maps = GridMapCalculator(rec.molecule)
                              .calculate(box, screening_ligand_types(),
                                         ScoringFunction::Vina);
  // One map per non-hydrogen screening type, and no e/d maps.
  EXPECT_EQ(maps.scoring, ScoringFunction::Vina);
  EXPECT_EQ(maps.affinity.size(), screening_ligand_types().size() - 2);
  EXPECT_EQ(maps.affinity_for(AdType::H), nullptr);
  EXPECT_EQ(maps.affinity_for(AdType::HD), nullptr);
  EXPECT_TRUE(maps.electrostatic.values().empty());
  EXPECT_TRUE(maps.desolvation.values().empty());

  const auto tables = VinaPairTables::shared(VinaWeights{});
  int at_cutoff = 0, past_cutoff = 0;
  for (const mol::Atom& a : rec.molecule.atoms()) {
    const double d2 = mol::distance_sq(a.pos, p);
    at_cutoff += d2 == lut::kCutoffSq;
    past_cutoff += d2 > lut::kCutoffSq;
  }
  ASSERT_EQ(at_cutoff, 1);
  ASSERT_GT(past_cutoff, 0);
  for (const auto& [type, map] : maps.affinity) {
    double brute = 0.0, scale = 1.0;
    for (const mol::Atom& a : rec.molecule.atoms()) {
      const double e =
          tables->pair_energy(type, a.ad_type, mol::distance_sq(a.pos, p));
      brute += e;
      scale += std::abs(e);
    }
    EXPECT_NEAR(map.at(ix, iy, iz), brute, 1e-9 * scale)
        << mol::ad_type_name(type);
  }
}

// ------------------------------------------------- AutoGrid map bits
//
// Every docking digest downstream depends on the exact bits of the maps:
// the neighbour order of NeighborList::for_each_within and the
// a + (b - a) * t association of each LUT channel fix them. The digests
// are fnv1a64 over the raw (little-endian) bytes of every map of a set:
// the affinity maps in set order, then e and d.

/// A receptor as the pipeline's AutoGrid sees it: generated PDB, parsed,
/// prepared to PDBQT, parsed again with geometry-inferred bonds. Without
/// the round trip a prepared receptor has no bonds, so every Gasteiger
/// charge is 0 and the electrostatic map is all zeros.
mol::PreparedReceptor pipeline_receptor(const std::string& code) {
  return mol::read_prepared_receptor(
      mol::prepare_receptor(
          mol::read_pdb(mol::write_pdb(data::make_receptor(code)), code))
          .pdbqt);
}

std::string map_bits_digest(const GridMapSet& set) {
  std::string bytes;
  const auto add = [&bytes](const GridMap& map) {
    bytes.append(reinterpret_cast<const char*>(map.values().data()),
                 map.values().size() * sizeof(double));
  };
  for (const auto& entry : set.affinity) add(entry.second);
  add(set.electrostatic);
  add(set.desolvation);
  return strformat("%016llx",
                   static_cast<unsigned long long>(fnv1a64(bytes)));
}

TEST(AutogridBits, PipelineReceptorDigestsArePinned) {
  struct Case {
    const char* receptor;
    ScoringFunction scoring;
    const char* digest;
    std::size_t max_degree;  ///< most geometry-inferred bonds on one atom
  };
  // Captured before the map sweep was restructured.
  const Case cases[] = {
      {"1AEC", ScoringFunction::Ad4, "7580d3ce5e84412f", 6},
      {"1AEC", ScoringFunction::Vina, "389f67228fdfe1a1", 6},
      {"1BGO", ScoringFunction::Ad4, "d7fa6605b372f1f6", 30},
      {"1BGO", ScoringFunction::Vina, "309feca8bc83e6db", 30},
  };
  const mol::PreparedLigand lig = mol::prepare_ligand(data::make_ligand("042"));
  for (const Case& c : cases) {
    const mol::PreparedReceptor rec = pipeline_receptor(c.receptor);
    std::size_t max_degree = 0;
    for (int i = 0; i < rec.molecule.atom_count(); ++i) {
      max_degree = std::max(max_degree, rec.molecule.neighbors(i).size());
    }
    EXPECT_EQ(max_degree, c.max_degree) << c.receptor;
    const GridParameterFile gpf =
        make_screening_gpf(rec.molecule, lig.molecule, 4.0, 0.55);
    const GridMapSet set = GridMapCalculator(rec.molecule)
                               .calculate(gpf.box, gpf.ligand_types, c.scoring);
    if (c.scoring == ScoringFunction::Ad4) {
      const auto& e = set.electrostatic.values();
      EXPECT_TRUE(std::any_of(e.begin(), e.end(),
                              [](double v) { return v != 0.0; }))
          << c.receptor << ": the round trip lost the charges";
    }
    EXPECT_EQ(map_bits_digest(set), c.digest)
        << c.receptor << (c.scoring == ScoringFunction::Ad4 ? " AD4" : " Vina");
  }
}

/// Every map value of `scoring`'s set over `box` against the sum, in atom
/// order, of the pair terms of every receptor atom within the cutoff
/// (r² <= 64 Å², the sweep's inclusive test).
void expect_sweep_matches_brute_force(const mol::Molecule& rec,
                                      const GridBox& box,
                                      ScoringFunction scoring) {
  const std::vector<AdType> types{AdType::C, AdType::OA, AdType::N,
                                  AdType::HD};
  const GridMapSet set = GridMapCalculator(rec).calculate(box, types, scoring);
  const bool ad4 = scoring == ScoringFunction::Ad4;
  const auto ad4_tables = Ad4PairTables::shared(Ad4Weights{});
  const auto vina_tables = VinaPairTables::shared(VinaWeights{});
  const mol::Vec3 origin = box.origin();
  int mismatches = 0;
  int contributions = 0;
  for (int iz = 0; iz < box.npts[2]; ++iz) {
    for (int iy = 0; iy < box.npts[1]; ++iy) {
      for (int ix = 0; ix < box.npts[0]; ++ix) {
        const mol::Vec3 p{origin.x + ix * box.spacing,
                          origin.y + iy * box.spacing,
                          origin.z + iz * box.spacing};
        std::vector<std::pair<const GridMap*, double>> expect;
        for (const auto& [type, map] : set.affinity) expect.emplace_back(&map, 0.0);
        double elec = 0.0, desolv = 0.0, scale = 1.0;
        for (const mol::Atom& a : rec.atoms()) {
          const double d2 = mol::distance_sq(a.pos, p);
          if (d2 > lut::kCutoffSq) continue;
          ++contributions;
          if (ad4) {
            const double terms[] = {
                a.partial_charge * ad4_tables->coulomb_factor(d2),
                mol::ad_type_params(a.ad_type).volume *
                    ad4_tables->desolv_gauss(d2)};
            elec += terms[0];
            desolv += terms[1];
            for (double t : terms) scale += std::abs(t);
          }
          for (std::size_t t = 0; t < expect.size(); ++t) {
            const AdType lt = set.affinity[t].first;
            const double e =
                ad4 ? ad4_tables->vdw_hbond(lt, a.ad_type, d2)
                    : vina_tables->pair_energy(lt, a.ad_type, d2);
            expect[t].second += e;
            scale += std::abs(e);
          }
        }
        const auto check = [&](double got, double want, const char* what) {
          if (std::abs(got - want) <= 1e-9 * scale) return;
          if (++mismatches <= 3) {
            ADD_FAILURE() << what << " at (" << ix << "," << iy << "," << iz
                          << "): sweep " << got << ", brute force " << want;
          }
        };
        if (ad4) {
          check(set.electrostatic.at(ix, iy, iz), elec, "e");
          check(set.desolvation.at(ix, iy, iz), desolv, "d");
        }
        for (const auto& [map, want] : expect) {
          check(map->at(ix, iy, iz), want, map->label().c_str());
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(contributions, 0);
}

/// A hand-built receptor: `atoms` as (type, position, charge).
mol::Molecule hand_receptor(
    const std::vector<std::tuple<AdType, mol::Vec3, double>>& atoms) {
  mol::Molecule m{"hand"};
  for (const auto& [type, pos, charge] : atoms) {
    mol::Atom a;
    a.element = type == AdType::OA ? mol::Element::O
                : type == AdType::N ? mol::Element::N
                                    : mol::Element::C;
    a.ad_type = type;
    a.pos = pos;
    a.partial_charge = charge;
    m.add_atom(a);
  }
  m.perceive(/*retype=*/false);
  return m;
}

TEST(AutogridBits, AtomExactlyAtCutoffAlongRowIsKept) {
  // Box points x = 0..4 on every row; the first atom sits exactly 8 Å past
  // the row's last point, the second exactly 8 Å before its first point
  // (in the cell below zero), the third just past the cutoff.
  GridBox box;
  box.center = {2.0, 1.0, 1.0};
  box.npts = {9, 5, 5};
  box.spacing = 0.5;
  ASSERT_EQ(box.origin().x, 0.0);
  const mol::Molecule rec = hand_receptor({
      {AdType::OA, {12.0, 1.0, 1.0}, -0.4},
      {AdType::N, {-8.0, 2.0, 0.0}, 0.3},
      {AdType::C, {12.0 + 1.0 / 64.0, 0.0, 0.0}, 0.2},
  });
  expect_sweep_matches_brute_force(rec, box, ScoringFunction::Ad4);
  expect_sweep_matches_brute_force(rec, box, ScoringFunction::Vina);
  // The points the first two atoms reach at exactly 8 Å carry their terms
  // and nothing else.
  const GridMapSet set =
      GridMapCalculator(rec).calculate(box, {AdType::C}, ScoringFunction::Ad4);
  const auto tables = Ad4PairTables::shared(Ad4Weights{});
  EXPECT_EQ(set.electrostatic.at(8, 2, 2), -0.4 * tables->coulomb_factor(64.0));
  EXPECT_EQ(set.electrostatic.at(0, 4, 0), 0.3 * tables->coulomb_factor(64.0));
  EXPECT_EQ(set.electrostatic.at(7, 2, 2), 0.0);
}

TEST(AutogridBits, BoxPastReceptorCellsAndNegativeCoordinates) {
  mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1BRF", tiny()));
  // The box reaches two cells past the receptor on every side.
  const GridBox wide = GridBox::around(rec.molecule.center(), 24.0, 1.5);
  expect_sweep_matches_brute_force(rec.molecule, wide, ScoringFunction::Ad4);
  expect_sweep_matches_brute_force(rec.molecule, wide, ScoringFunction::Vina);

  std::vector<mol::Vec3> coords = rec.molecule.coordinates();
  for (mol::Vec3& c : coords) c = c + mol::Vec3{-150.25, -75.5, -40.125};
  rec.molecule.set_coordinates(coords);
  const GridBox shifted = GridBox::around(rec.molecule.center(), 9.0, 0.75);
  expect_sweep_matches_brute_force(rec.molecule, shifted, ScoringFunction::Ad4);
  expect_sweep_matches_brute_force(rec.molecule, shifted, ScoringFunction::Vina);
}

TEST(AutogridBits, OneAtomReceptor) {
  const mol::Molecule rec =
      hand_receptor({{AdType::N, {0.3, -0.2, 0.1}, -0.35}});
  const GridBox box = GridBox::around({0.0, 0.0, 0.0}, 10.0, 0.75);
  expect_sweep_matches_brute_force(rec, box, ScoringFunction::Ad4);
  expect_sweep_matches_brute_force(rec, box, ScoringFunction::Vina);
}

// ------------------------------------------------- energy evaluation

TEST(EnergyModel, EvaluationIsTheTermsOfCoordsFor) {
  const auto opts = tiny();
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  const mol::PreparedLigand lig =
      mol::prepare_ligand(data::make_ligand("0E6", opts));
  const GridBox box = GridBox::around(rec.molecule.center(), 9.0, 0.75);
  const GridMapCalculator calc(rec.molecule);
  const GridMapSet ad4_maps = calc.calculate(box, screening_ligand_types());
  const GridMapSet vina_maps = calc.calculate(box, screening_ligand_types(),
                                              ScoringFunction::Vina);
  const Ad4EnergyModel ad4(ad4_maps, lig);
  const VinaEnergyModel vina(vina_maps, lig);
  const auto tables = Ad4PairTables::shared(Ad4Weights{});
  const auto pairs = intramolecular_pairs(lig.molecule, lig.torsions);
  Rng rng(59);
  for (int i = 0; i < 40; ++i) {
    const DockPose pose = DockPose::random(box, ad4.reference_center(),
                                           lig.torsions.torsion_count(), rng);
    const std::vector<mol::Vec3> c = ad4.coords_for(pose);
    EXPECT_EQ(ad4(pose), ad4.intermolecular(c) + ad4.intramolecular(c));
    EXPECT_EQ(vina(pose), vina.intermolecular(c) + vina.intramolecular(c));
    EXPECT_EQ(vina.coords_for(pose), c);
    // The AD4 intramolecular sum is the pair kernel's, bit for bit.
    double intra = 0.0;
    for (const auto& [a, b] : pairs) {
      const mol::Atom& ai = lig.molecule.atom(a);
      const mol::Atom& aj = lig.molecule.atom(b);
      intra += tables->pair_energy(
          ai.ad_type, ai.partial_charge, aj.ad_type, aj.partial_charge,
          mol::distance_sq(c[static_cast<std::size_t>(a)],
                           c[static_cast<std::size_t>(b)]));
    }
    EXPECT_EQ(ad4.intramolecular(c), intra);
  }
  EXPECT_EQ(ad4.evaluations(), 40);
  EXPECT_EQ(vina.evaluations(), 40);
}

// --------------------------------------------- torsion-tree frames

/// The per-branch loop that TorsionTree::apply_into replaced: each branch
/// rotates its moving atoms about its current axis by a quaternion,
/// parents first, and then the pose rotates every atom about the root
/// centre and translates it.
std::vector<mol::Vec3> quaternion_reference(const mol::TorsionTree& tree,
                                            std::vector<mol::Vec3> out,
                                            const mol::Pose& pose,
                                            const std::vector<double>& angles) {
  const mol::Vec3 center = tree.root_center(out);
  for (std::size_t b = 0; b < tree.branches().size(); ++b) {
    const mol::TorsionBranch& br = tree.branches()[b];
    const mol::Vec3 origin = out[static_cast<std::size_t>(br.atom_from)];
    const mol::Quaternion q = mol::Quaternion::from_axis_angle(
        out[static_cast<std::size_t>(br.atom_to)] - origin, angles[b]);
    for (int atom : br.moving_atoms) {
      mol::Vec3& p = out[static_cast<std::size_t>(atom)];
      p = q.rotate(p - origin) + origin;
    }
  }
  for (mol::Vec3& p : out) {
    p = pose.rotation.rotate(p - center) + center + pose.translation;
  }
  return out;
}

/// A Table 2 ligand as prepligand makes it, and as the docking activities
/// read it back from its PDBQT (bonds from geometry, written types kept).
std::vector<mol::PreparedLigand> both_ligand_forms(const std::string& code) {
  mol::PreparedLigand prepared = mol::prepare_ligand(data::make_ligand(code));
  mol::PdbqtModel model = mol::read_pdbqt(prepared.pdbqt, code);
  model.molecule.infer_bonds_from_geometry();
  model.molecule.perceive(/*retype=*/false);
  mol::PreparedLigand read_back{std::move(model.molecule),
                                std::move(model.torsions), prepared.pdbqt};
  std::vector<mol::PreparedLigand> forms;
  forms.push_back(std::move(prepared));
  forms.push_back(std::move(read_back));
  return forms;
}

TEST(TorsionFrames, ApplyMatchesSequentialQuaternionReference) {
  const GridBox box = GridBox::around({3.0, -2.0, 1.0}, 10.0, 0.5);
  Rng rng(71);
  for (const std::string& code : data::table2_ligands()) {
    for (const mol::PreparedLigand& lig : both_ligand_forms(code)) {
      const std::vector<mol::Vec3> ref = lig.molecule.coordinates();
      const mol::Vec3 center = lig.torsions.root_center(ref);
      std::vector<mol::RigidFrame> frames;
      std::vector<mol::Vec3> out;
      for (int trial = 0; trial < 10; ++trial) {
        const DockPose pose =
            DockPose::random(box, center, lig.torsions.torsion_count(), rng);
        lig.torsions.apply_into(ref, center, pose.rigid, pose.torsions, frames,
                                out);
        const std::vector<mol::Vec3> expected = quaternion_reference(
            lig.torsions, ref, pose.rigid, pose.torsions);
        ASSERT_EQ(out.size(), expected.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
          EXPECT_LT(mol::distance(out[i], expected[i]), 1e-9)
              << code << " atom " << i;
        }
      }
    }
  }
}

/// True when atoms i and j are one or two bonds apart.
bool within_two_bonds(const mol::Molecule& m, int i, int j) {
  for (int k : m.neighbors(i)) {
    if (k == j) return true;
    for (int l : m.neighbors(k)) {
      if (l == j) return true;
    }
  }
  return false;
}

TEST(TorsionFrames, DroppedPairsAreExactlyTheRigidOnes) {
  // Of the pairs three or more bonds apart, the pair list leaves out
  // exactly those whose distance no torsion changes: every dropped pair
  // keeps its distance under random torsions, and every kept pair moves.
  Rng rng(73);
  int separated = 0, dropped = 0;
  for (const std::string& code : data::table2_ligands()) {
    const mol::PreparedLigand lig = mol::prepare_ligand(data::make_ligand(code));
    const mol::Molecule& m = lig.molecule;
    const std::vector<mol::Vec3> ref = m.coordinates();
    std::vector<std::vector<mol::Vec3>> posed;
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> angles(
          static_cast<std::size_t>(lig.torsions.torsion_count()));
      for (double& a : angles) a = rng.uniform(-3.14159, 3.14159);
      posed.push_back(lig.torsions.apply(ref, mol::Pose{}, angles));
    }
    const auto pairs = intramolecular_pairs(m, lig.torsions);
    const std::set<std::pair<int, int>> kept(pairs.begin(), pairs.end());
    EXPECT_EQ(kept.size(), pairs.size()) << code;
    for (int i = 0; i < m.atom_count(); ++i) {
      for (int j = i + 1; j < m.atom_count(); ++j) {
        if (within_two_bonds(m, i, j)) {
          EXPECT_FALSE(kept.contains({i, j})) << code;
          continue;
        }
        ++separated;
        const double d0 = mol::distance(ref[static_cast<std::size_t>(i)],
                                        ref[static_cast<std::size_t>(j)]);
        double max_change = 0.0;
        for (const auto& c : posed) {
          max_change = std::max(
              max_change, std::abs(mol::distance(c[static_cast<std::size_t>(i)],
                                                 c[static_cast<std::size_t>(j)]) -
                                   d0));
        }
        if (kept.contains({i, j})) {
          EXPECT_GT(max_change, 1e-6) << code << " pair " << i << "," << j;
        } else {
          ++dropped;
          EXPECT_LT(max_change, 1e-9) << code << " pair " << i << "," << j;
        }
      }
    }
  }
  EXPECT_EQ(separated, 7941);
  EXPECT_EQ(dropped, 1431);
}

TEST(TorsionFrames, SharedLigandEvaluatesIdenticallyOnFourThreads) {
  // Cached ligands and map sets are shared across workers; each worker
  // owns its energy model, so concurrent evaluation keeps every bit.
  const auto opts = tiny();
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  const mol::PreparedLigand lig = mol::prepare_ligand(data::make_ligand("0E6"));
  const GridBox box = GridBox::around(rec.molecule.center(), 9.0, 0.75);
  const GridMapCalculator calc(rec.molecule);
  const GridMapSet ad4_maps = calc.calculate(box, screening_ligand_types());
  const GridMapSet vina_maps = calc.calculate(box, screening_ligand_types(),
                                              ScoringFunction::Vina);
  std::vector<DockPose> poses;
  {
    const Ad4EnergyModel model(ad4_maps, lig);
    Rng rng(79);
    for (int i = 0; i < 200; ++i) {
      poses.push_back(DockPose::random(box, model.reference_center(),
                                       lig.torsions.torsion_count(), rng));
    }
  }
  const auto evaluate_all = [&] {
    const Ad4EnergyModel ad4(ad4_maps, lig);
    const VinaEnergyModel vina(vina_maps, lig);
    std::vector<double> energies;
    for (const DockPose& pose : poses) {
      energies.push_back(ad4(pose));
      energies.push_back(vina(pose));
    }
    return energies;
  };
  const std::vector<double> serial = evaluate_all();
  std::vector<std::vector<double>> parallel(4);
  std::vector<std::thread> workers;
  for (auto& out : parallel) {
    workers.emplace_back([&out, &evaluate_all] { out = evaluate_all(); });
  }
  for (std::thread& t : workers) t.join();
  for (const auto& energies : parallel) EXPECT_EQ(energies, serial);
}

TEST(KernelBruteForce, VinaMapPoseErrorIsBounded) {
  // The pipeline's screening box and spacing on a Table 3 pair. Poses are
  // kept when every atom is in the box and the exact energy is not a clash
  // (<= 0): those are the poses a search keeps, while inside a clash the
  // repulsive wall is too steep for a 0.55 Å grid and the search leaves it.
  const auto opts = tiny();
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1BRF", opts));
  const mol::PreparedLigand lig =
      mol::prepare_ligand(data::make_ligand("0E6", opts));
  const GridParameterFile gpf =
      make_screening_gpf(rec.molecule, lig.molecule, 4.0, 0.55);
  const GridMapSet maps = GridMapCalculator(rec.molecule)
                              .calculate(gpf.box, gpf.ligand_types,
                                         ScoringFunction::Vina);
  const VinaEnergyModel model(maps, lig);
  // Root positions within 6 Å of the receptor centre reach its surface.
  const GridBox roots = GridBox::around(rec.molecule.center(), 6.0, 0.55);
  Rng rng(31);
  int kept = 0;
  double sum_abs = 0.0, sum_exact = 0.0, max_abs = 0.0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::vector<mol::Vec3> coords = model.coords_for(DockPose::random(
        roots, model.reference_center(), lig.torsions.torsion_count(), rng));
    bool in_box = true;
    for (const mol::Vec3& c : coords) in_box = in_box && gpf.box.contains(c);
    if (!in_box) continue;
    const double exact = model.exact_intermolecular(rec.molecule, coords);
    if (exact > 0.0) continue;
    const double err = std::abs(model.intermolecular(coords) - exact);
    ++kept;
    sum_abs += err;
    sum_exact += std::abs(exact);
    max_abs = std::max(max_abs, err);
  }
  ASSERT_GE(kept, 400);
  // Measured on these 473 poses: the summed error is 8.9% of the summed
  // exact energy (0.13 kcal/mol per pose), and the worst pose is off by
  // 1.02 kcal/mol. The bounds add about a third to those figures.
  EXPECT_LT(sum_abs / sum_exact, 0.12);
  EXPECT_LT(max_abs, 1.5);
}

TEST(KernelBruteForce, VinaReportedModesAreRescoredExactly) {
  const auto opts = tiny();
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  const mol::PreparedLigand lig =
      mol::prepare_ligand(data::make_ligand("0E6", opts));
  VinaConfig cfg;
  cfg.exhaustiveness = 3;
  VinaEngine engine(cfg);
  engine.steps_per_chain = 10;
  Rng rng(13);
  const DockingResult result = engine.dock(
      rec, lig, GridBox::around(rec.molecule.center(), 9.0, 0.55), rng);
  ASSERT_FALSE(result.empty());

  const auto tables = VinaPairTables::shared(VinaWeights{});
  for (const Conformation& conf : result.conformations) {
    double brute = 0.0, scale = 1.0;
    for (std::size_t i = 0; i < conf.coords.size(); ++i) {
      const AdType t = lig.molecule.atom(static_cast<int>(i)).ad_type;
      for (const mol::Atom& a : rec.molecule.atoms()) {
        const double e =
            tables->pair_energy(t, a.ad_type, mol::distance_sq(conf.coords[i], a.pos));
        brute += e;
        scale += std::abs(e);
      }
    }
    EXPECT_NEAR(conf.intermolecular, brute, 1e-9 * scale);
    EXPECT_DOUBLE_EQ(conf.feb,
                     vina_affinity(conf.intermolecular,
                                   lig.torsions.torsion_count()));
  }
  // Reported best first, by the exact FEB.
  for (std::size_t i = 1; i < result.conformations.size(); ++i) {
    EXPECT_LE(result.conformations[i - 1].feb, result.conformations[i].feb);
  }
}

// ------------------------------------------------- evaluation counting

TEST(BatchedScoring, EvaluationCountingMatchesScalarDiscipline) {
  const auto opts = tiny();
  const mol::PreparedReceptor rec =
      mol::prepare_receptor(data::make_receptor("1AIM", opts));
  const mol::PreparedLigand lig =
      mol::prepare_ligand(data::make_ligand("0E6", opts));
  const GridBox box = GridBox::around(rec.molecule.center(), 9.0, 0.75);
  const GridMapSet maps = GridMapCalculator(rec.molecule)
                              .calculate(box, screening_ligand_types(),
                                         ScoringFunction::Vina);
  const VinaEnergyModel model(maps, lig);
  Rng rng(47);
  std::vector<DockPose> poses;
  for (int i = 0; i < 5; ++i) {
    poses.push_back(DockPose::random(box, model.reference_center(),
                                     lig.torsions.torsion_count(), rng));
  }
  EXPECT_EQ(model.evaluations(), 0);
  std::vector<double> energies;
  for (const DockPose& pose : poses) {
    energies.push_back(model(pose));  // search path: one count per pose
  }
  EXPECT_EQ(model.evaluations(), 5);
  const auto input = lig.molecule.coordinates();
  for (std::size_t p = 0; p < poses.size(); ++p) {  // reporting path
    const Conformation conf = score_conformation(model, poses[p], input);
    EXPECT_EQ(conf.intermolecular + conf.intramolecular, energies[p]);
  }
  EXPECT_EQ(model.evaluations(), 5);
}

// ----------------------------------------------------- screening GPF

TEST(ScreeningGpf, CanonicalAcrossLigands) {
  const auto opts = tiny();
  const std::vector<std::string> codes{"042", "074", "0E6"};
  vfs::SharedFileSystem fs;
  const std::vector<AdType> census =
      core::ligand_type_census(fs, staged_ligands(fs, codes, opts));
  const mol::Molecule rec = data::make_receptor("1CAN", opts);
  GridParameterFile first;
  bool have_first = false;
  for (const std::string& code : codes) {
    const GridParameterFile gpf = make_screening_gpf(
        rec, data::make_ligand(code, opts), 4.0, 0.55, census);
    if (!have_first) {
      first = gpf;
      have_first = true;
      continue;
    }
    // Same receptor, any ligand of the campaign: identical box and type
    // set — the property the grid-map cache keys on.
    EXPECT_EQ(gpf.box.npts, first.box.npts);
    EXPECT_DOUBLE_EQ(gpf.box.center.x, first.box.center.x);
    EXPECT_EQ(gpf.ligand_types, first.ligand_types);
  }
  // 042 carries C A F, 074 C A and 0E6 HD C A OA.
  EXPECT_EQ(first.ligand_types, census);
  EXPECT_EQ(census, (std::vector<AdType>{AdType::HD, AdType::C, AdType::A,
                                         AdType::OA, AdType::F}));
}

TEST(ScreeningGpf, LigandOutsideTheCensusKeepsItsOwnTypes) {
  const auto opts = tiny();
  const mol::Molecule rec = data::make_receptor("1CAN", opts);
  // 042 carries C A F; a census of C and OA misses A and F.
  const GridParameterFile gpf = make_screening_gpf(
      rec, data::make_ligand("042", opts), 4.0, 0.55, {AdType::OA, AdType::C});
  EXPECT_EQ(gpf.ligand_types, (std::vector<AdType>{AdType::C, AdType::A,
                                                   AdType::OA, AdType::F}));
  // No census: the ligand's own types alone.
  EXPECT_EQ(make_screening_gpf(rec, data::make_ligand("042", opts), 4.0, 0.55,
                               {})
                .ligand_types,
            (std::vector<AdType>{AdType::C, AdType::A, AdType::F}));
}

}  // namespace
}  // namespace scidock::dock

// -------------------------------------------------- single-flight cache

namespace scidock::core {
namespace {

dock::GridMapSet tiny_mapset() {
  dock::GridMapSet set;
  set.box = dock::GridBox::around({0, 0, 0}, 2.0, 1.0);
  set.electrostatic = dock::GridMap(set.box, "e");
  set.desolvation = dock::GridMap(set.box, "d");
  return set;
}

TEST(SingleFlightCache, ComputesOncePerKeyUnderContention) {
  ArtifactCache cache;
  std::atomic<int> computed{0};
  std::atomic<int> hits{0}, misses{0}, waits{0};
  std::vector<std::thread> threads;
  std::vector<ArtifactCache::MapsPtr> results(8);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      auto [maps, outcome] = cache.get_or_compute_maps("k", [&] {
        computed.fetch_add(1);
        return tiny_mapset();
      });
      results[static_cast<std::size_t>(i)] = maps;
      switch (outcome) {
        case CacheOutcome::kHit: hits.fetch_add(1); break;
        case CacheOutcome::kMiss: misses.fetch_add(1); break;
        case CacheOutcome::kInflightWait: waits.fetch_add(1); break;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computed.load(), 1);
  EXPECT_EQ(misses.load(), 1);
  EXPECT_EQ(hits.load() + waits.load(), 7);
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
}

TEST(SingleFlightCache, DistinctKeysComputeIndependently) {
  ArtifactCache cache;
  int computed = 0;
  const auto compute = [&] {
    ++computed;
    return tiny_mapset();
  };
  const auto [a, oa] = cache.get_or_compute_maps("a", compute);
  const auto [b, ob] = cache.get_or_compute_maps("b", compute);
  const auto [a2, oa2] = cache.get_or_compute_maps("a", compute);
  EXPECT_EQ(computed, 2);
  EXPECT_EQ(oa, CacheOutcome::kMiss);
  EXPECT_EQ(ob, CacheOutcome::kMiss);
  EXPECT_EQ(oa2, CacheOutcome::kHit);
  EXPECT_EQ(a.get(), a2.get());
  EXPECT_NE(a.get(), b.get());
}

TEST(SingleFlightCache, ExceptionErasesFlightSoRetryRecomputes) {
  ArtifactCache cache;
  EXPECT_THROW(cache.get_or_compute_maps(
                   "k", []() -> dock::GridMapSet {
                     throw std::runtime_error("vfs fault");
                   }),
               std::runtime_error);
  // The failed flight is gone: a retry computes fresh and succeeds.
  const auto [maps, outcome] = cache.get_or_compute_maps("k", tiny_mapset);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  EXPECT_NE(maps, nullptr);
}

TEST(SingleFlightCache, AliasSharesTheSameSet) {
  ArtifactCache cache;
  const auto [maps, outcome] = cache.get_or_compute_maps("canonical", tiny_mapset);
  EXPECT_EQ(outcome, CacheOutcome::kMiss);
  cache.alias_maps("/exp/autogrid/p1/receptor", maps);
  cache.alias_maps("/exp/autogrid/p2/receptor", maps);
  EXPECT_EQ(cache.maps("/exp/autogrid/p1/receptor").get(), maps.get());
  EXPECT_EQ(cache.maps("/exp/autogrid/p2/receptor").get(), maps.get());
  EXPECT_EQ(cache.maps("unknown"), nullptr);
}

// ------------------------------------------- pipeline-level equivalence

std::vector<std::string> some_receptors(int n) {
  const auto& all = data::table2_receptors();
  return {all.begin(), all.begin() + n};
}

/// Under tiny() the first two Table 2 receptors (10 and 11 residues) route
/// to AD4 and 1EWL (13 residues, threshold 12) routes to Vina, so the
/// screen runs both engines.
std::vector<std::string> both_engine_receptors() {
  std::vector<std::string> receptors = some_receptors(2);
  receptors.push_back("1EWL");
  return receptors;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct RunArtifacts {
  std::map<std::string, std::pair<std::string, std::string>> feb_rmsd;  ///< by pair
  std::map<std::string, int> engines;  ///< engine -> pairs it docked
  std::map<std::string, std::string> autogrid_files;  ///< path -> content
  /// DLG, Vina log and Vina _out.pdbqt files: path -> content.
  std::map<std::string, std::string> docking_files;
};

RunArtifacts collect(Experiment& exp, const wf::NativeReport& report) {
  RunArtifacts out;
  for (const auto& t : report.output.tuples()) {
    out.feb_rmsd[t.require("pair")] = {t.require("feb"), t.require("rmsd")};
    ++out.engines[t.require("engine")];
  }
  for (const auto& f : exp.fs->list("/")) {
    if (f.path.find("/autogrid/") != std::string::npos) {
      out.autogrid_files[f.path] = exp.fs->read(f.path);
    } else if (ends_with(f.path, ".dlg") || ends_with(f.path, ".log") ||
               ends_with(f.path, "_out.pdbqt")) {
      out.docking_files[f.path] = exp.fs->read(f.path);
    }
  }
  return out;
}

TEST(GridMapReuse, Table3OutputsIdenticalAcrossCacheAndThreads) {
  ScidockOptions opts;
  opts.dataset = dock::tiny();  // namespace-qualified helper above
  opts.write_map_files = true;
  const std::vector<std::string> ligands{"042", "074", "0E6"};

  // Baseline: cache off, single thread.
  opts.reuse_grid_maps = false;
  auto base_exp = make_experiment(both_engine_receptors(), ligands, 0, opts);
  const wf::NativeReport base_report = run_native(base_exp, 1, "base");
  const RunArtifacts base = collect(base_exp, base_report);
  ASSERT_EQ(base.feb_rmsd.size(), 9u);
  EXPECT_EQ(base.engines, (std::map<std::string, int>{{"ad4", 6}, {"vina", 3}}));
  ASSERT_FALSE(base.autogrid_files.empty());
  // One DLG per AD4 pair; one log and one pose file per Vina pair.
  ASSERT_EQ(base.docking_files.size(), 12u);

  // Cache on, multiple threads: FEB/RMSD (the Table 3 columns), every
  // AutoGrid artifact and every docking output must be byte-identical.
  opts.reuse_grid_maps = true;
  for (int threads : {1, 4}) {
    auto exp = make_experiment(both_engine_receptors(), ligands, 0, opts);
    const wf::NativeReport report =
        run_native(exp, threads, "reuse" + std::to_string(threads));
    const RunArtifacts got = collect(exp, report);
    EXPECT_EQ(got.feb_rmsd, base.feb_rmsd) << threads << " threads";
    EXPECT_EQ(got.engines, base.engines) << threads << " threads";
    EXPECT_EQ(got.autogrid_files, base.autogrid_files) << threads << " threads";
    EXPECT_EQ(got.docking_files, base.docking_files) << threads << " threads";
  }
}

TEST(GridMapReuse, CacheCountersReconcileAndHit) {
  ScidockOptions opts;
  opts.dataset = dock::tiny();
  opts.reuse_grid_maps = true;
  auto exp = make_experiment(some_receptors(2), {"042", "074", "0E6"}, 0, opts);
  obs::MetricsRegistry metrics;
  const wf::NativeReport report =
      run_native(exp, 4, "reuse-metrics", obs::Observability{nullptr, &metrics});
  ASSERT_EQ(report.output.tuples().size(), 6u);
  const long long hits = metrics.counter_value(obs::kCacheGridmapsHits);
  const long long misses = metrics.counter_value(obs::kCacheGridmapsMisses);
  const long long waits =
      metrics.counter_value(obs::kCacheGridmapsInflightWaits);
  // 6 AutoGrid activations over 2 receptors: one compute per receptor,
  // everything else hits (or waited on the in-flight compute).
  EXPECT_EQ(hits + misses + waits, 6);
  EXPECT_EQ(misses, 2);
  EXPECT_EQ(metrics.counter_value(obs::kKernelAutogridMapsets), 2);
  // Slab counter and histogram observe from the same callback.
  EXPECT_EQ(metrics.counter_value(obs::kKernelAutogridSlabs),
            metrics.histogram_count(obs::kKernelAutogridSlabSeconds));
  EXPECT_GT(metrics.counter_value(obs::kKernelAutogridSlabs), 0);
}

// ------------------------------------------------- ligand-type census

TEST(LigandTypeCensus, EqualsPreparedTypesOfAllTable2Ligands) {
  for (const data::GeneratorOptions& opts :
       {data::GeneratorOptions{}, dock::tiny()}) {
    vfs::SharedFileSystem fs;
    const std::vector<std::string> paths =
        dock::staged_ligands(fs, data::table2_ligands(), opts);
    // The types the docking stages read: each ligand through babel and
    // prepligand, reloaded from its PDBQT.
    std::set<mol::AdType> prepared;
    for (const std::string& path : paths) {
      const mol::PreparedLigand lig = mol::prepare_ligand(
          mol::read_mol2(mol::write_mol2(mol::read_sdf(fs.read(path)))));
      const mol::PdbqtModel reloaded = mol::read_pdbqt(lig.pdbqt);
      for (const mol::Atom& a : reloaded.molecule.atoms()) {
        prepared.insert(a.ad_type);
      }
    }
    const std::vector<mol::AdType> census = ligand_type_census(fs, paths);
    EXPECT_EQ(census,
              std::vector<mol::AdType>(prepared.begin(), prepared.end()));
    // HD C A N NA OA F SA Cl: 9 of the 19 supported types.
    EXPECT_EQ(census.size(), 9u);
  }
}

TEST(LigandTypeCensus, SkipsFilesItCannotReadOrParse) {
  vfs::SharedFileSystem fs;
  std::vector<std::string> paths =
      dock::staged_ligands(fs, {"074"}, dock::tiny());
  const std::vector<mol::AdType> alone = ligand_type_census(fs, paths);
  fs.write("/exp/input/garbage.sdf", "not a molecule\n");
  paths.push_back("/exp/input/garbage.sdf");
  paths.push_back("/exp/input/missing.sdf");
  EXPECT_EQ(ligand_type_census(fs, paths), alone);
  EXPECT_EQ(alone, (std::vector<mol::AdType>{mol::AdType::C, mol::AdType::A}));
}

TEST(LigandTypeCensus, LigandOutsideTheCensusDocksIdentically) {
  ScidockOptions opts;
  opts.dataset = dock::tiny();
  const std::vector<std::string> ligands{"074", "042", "0E6"};
  opts.reuse_grid_maps = false;
  auto base_exp = make_experiment(both_engine_receptors(), ligands, 0, opts);
  const RunArtifacts base = collect(base_exp, run_native(base_exp, 1, "base"));
  ASSERT_EQ(base.feb_rmsd.size(), 9u);

  // A census of 074 alone (C A): 042's F and 0E6's HD and OA fall outside
  // it, so each ligand's GPF lists a type set of its own.
  opts.reuse_grid_maps = true;
  auto exp = make_experiment(both_engine_receptors(), ligands, 0, opts);
  exp.cache = make_artifact_cache({opts.expdir + "/input/074.sdf"});
  exp.pipeline = build_scidock_pipeline(opts, exp.cache);
  obs::MetricsRegistry metrics;
  const wf::NativeReport report =
      run_native(exp, 4, "narrow", obs::Observability{nullptr, &metrics});
  const RunArtifacts got = collect(exp, report);
  EXPECT_EQ(got.feb_rmsd, base.feb_rmsd);
  EXPECT_EQ(got.docking_files, base.docking_files);
  // Three type sets on each of three receptors.
  EXPECT_EQ(metrics.counter_value(obs::kCacheGridmapsMisses), 9);
  EXPECT_EQ(metrics.counter_value(obs::kKernelAutogridMapsets), 9);
}

TEST(LigandTypeCensus, ReadFaultWhileTheCensusRunsLosesNoTuple) {
  ScidockOptions opts;
  opts.dataset = dock::tiny();
  const std::vector<std::string> ligands{"074", "042"};
  auto clean_exp = make_experiment(some_receptors(2), ligands, 0, opts);
  const RunArtifacts clean =
      collect(clean_exp, run_native(clean_exp, 1, "clean"));

  // One thread takes 074's first pair to gpfprep before any 042 pair
  // starts, so the census is the first reader of 042's file and takes its
  // one injected fault; both 042 babel activations then read it cleanly.
  auto exp = make_experiment(some_receptors(2), ligands, 0, opts);
  const std::string faulty = opts.expdir + "/input/042.sdf";
  std::atomic<int> reads{0};
  exp.fs->set_fault_hook([&](vfs::FileOp op, const std::string& path) {
    if (op == vfs::FileOp::Read && path == faulty && reads.fetch_add(1) == 0) {
      throw ActivityError("injected read fault on " + path);
    }
  });
  obs::MetricsRegistry metrics;
  const wf::NativeReport report =
      run_native(exp, 1, "faulted", obs::Observability{nullptr, &metrics});
  exp.fs->set_fault_hook(nullptr);
  EXPECT_EQ(reads.load(), 3);
  EXPECT_EQ(report.activations_failed, 0);
  EXPECT_EQ(report.tuples_lost, 0);
  chaos::InvariantChecker checker;
  EXPECT_TRUE(checker.check_conservation(chaos::summarize(
      report, wf::NativeExecutorOptions{}, exp.pairs.size())))
      << checker.to_string();
  // The census missed 042's F, so 042 has its own set on each receptor.
  EXPECT_EQ(metrics.counter_value(obs::kKernelAutogridMapsets), 4);
  const RunArtifacts got = collect(exp, report);
  EXPECT_EQ(got.feb_rmsd, clean.feb_rmsd);
  EXPECT_EQ(got.docking_files, clean.docking_files);
}

}  // namespace
}  // namespace scidock::core
