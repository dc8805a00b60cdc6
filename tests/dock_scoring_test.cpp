// Unit tests for the docking substrate: grid boxes/maps, scoring terms,
// neighbour lists, parameter files.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "dock/autogrid.hpp"
#include "dock/dpf.hpp"
#include "dock/grid.hpp"
#include "dock/scoring.hpp"
#include "mol/molecule.hpp"
#include "mol/torsion.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace scidock::dock {
namespace {

using mol::AdType;
using mol::Element;
using mol::Vec3;

// ---------------------------------------------------------------- grid

TEST(GridBox, GeometryInvariants) {
  GridBox box;
  box.center = {10, 20, 30};
  box.npts = {41, 41, 21};
  box.spacing = 0.5;
  const Vec3 ext = box.extent();
  EXPECT_DOUBLE_EQ(ext.x, 20.0);
  EXPECT_DOUBLE_EQ(ext.z, 10.0);
  EXPECT_TRUE(box.contains(box.center));
  EXPECT_TRUE(box.contains(box.origin()));
  EXPECT_FALSE(box.contains(box.center + Vec3{11, 0, 0}));
  EXPECT_EQ(box.total_points(), 41u * 41u * 21u);
  const mol::Aabb b = box.bounds();
  EXPECT_NEAR(b.center().x, box.center.x, 1e-12);
}

TEST(GridBox, AroundCoversRequestedExtent) {
  const GridBox box = GridBox::around({0, 0, 0}, 8.0, 0.5);
  EXPECT_TRUE(box.contains({7.9, 0, 0}));
  EXPECT_TRUE(box.contains({0, -7.9, 0}));
}

TEST(GridMap, IndexingAndSampling) {
  GridBox box;
  box.center = {0, 0, 0};
  box.npts = {3, 3, 3};
  box.spacing = 1.0;
  GridMap map(box, "C");
  // Linear field f = x so trilinear interpolation is exact.
  for (int iz = 0; iz < 3; ++iz)
    for (int iy = 0; iy < 3; ++iy)
      for (int ix = 0; ix < 3; ++ix) {
        map.at(ix, iy, iz) = box.origin().x + ix * box.spacing;
      }
  EXPECT_DOUBLE_EQ(map.sample({0.0, 0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(map.sample({0.25, 0.3, -0.4}), 0.25);
  EXPECT_DOUBLE_EQ(map.sample({-0.75, 0, 0}), -0.75);
}

TEST(GridMap, OutOfBoxIsPenalised) {
  GridBox box;
  box.npts = {3, 3, 3};
  box.spacing = 1.0;
  GridMap map(box, "C");
  EXPECT_DOUBLE_EQ(map.sample({100, 0, 0}), GridMap::kOutOfBoxPenalty);
  EXPECT_DOUBLE_EQ(map.sample({0, -100, 0}), GridMap::kOutOfBoxPenalty);
}

TEST(GridMap, MapFileRoundTrip) {
  GridBox box;
  box.center = {1.5, -2.0, 3.25};
  box.npts = {4, 3, 2};
  box.spacing = 0.375;
  GridMap map(box, "OA");
  for (std::size_t i = 0; i < map.values().size(); ++i) {
    map.values()[i] = static_cast<double>(i) * 0.25 - 1.0;
  }
  const GridMap back = GridMap::from_map_file(map.to_map_file());
  EXPECT_EQ(back.label(), "OA");
  EXPECT_EQ(back.box().npts, box.npts);
  EXPECT_NEAR(back.box().center.z, box.center.z, 1e-6);
  for (std::size_t i = 0; i < map.values().size(); ++i) {
    EXPECT_NEAR(back.values()[i], map.values()[i], 1e-3);
  }
}

TEST(GridMap, FromMapFileRejectsCountMismatch) {
  GridBox box;
  box.npts = {2, 2, 2};
  GridMap map(box, "C");
  std::string text = map.to_map_file();
  text += "42.0\n";  // one value too many
  EXPECT_THROW(GridMap::from_map_file(text), ParseError);
}

TEST(GridMap, FromMapFileRejectsDegenerateBox) {
  GridBox box;
  box.npts = {2, 2, 2};
  const std::string text = GridMap(box, "C").to_map_file();
  // NELEMENTS 0 0 0 is a one-point box; before the check it reached
  // GridMap's npts >= 2 assertion and aborted the process.
  std::string one_point = text;
  one_point.replace(one_point.find("NELEMENTS 1 1 1"), 15, "NELEMENTS 0 0 0");
  EXPECT_THROW(GridMap::from_map_file(one_point), ParseError);
  for (const char* spacing : {"SPACING 0.0000", "SPACING -0.3750",
                              "SPACING nan"}) {
    std::string bad = text;
    bad.replace(bad.find("SPACING 0.3750"), 14, spacing);
    EXPECT_THROW(GridMap::from_map_file(bad), ParseError) << spacing;
  }
}

TEST(GridMap, FromMapFileRejectsNonFiniteNumbers) {
  GridBox box;
  box.npts = {2, 2, 2};
  const std::string text = GridMap(box, "C").to_map_file();
  std::string bad_center = text;
  bad_center.replace(bad_center.find("CENTER 0.000"), 12, "CENTER nan");
  EXPECT_THROW(GridMap::from_map_file(bad_center), ParseError);
  for (const char* value : {"-nan\n", "-inf\n"}) {
    std::string bad_value = text;
    bad_value.replace(bad_value.rfind("0.0000\n"), 7, value);
    EXPECT_THROW(GridMap::from_map_file(bad_value), ParseError) << value;
  }
}

// -------------------------------------------------------------- scoring

TEST(Scoring, DielectricIncreasesWithDistance) {
  EXPECT_LT(mehler_solmajer_dielectric(1.0), mehler_solmajer_dielectric(5.0));
  EXPECT_LT(mehler_solmajer_dielectric(5.0), mehler_solmajer_dielectric(20.0));
  EXPECT_NEAR(mehler_solmajer_dielectric(100.0), 78.4, 1.0);  // bulk water
}

TEST(Scoring, Ad4VdwHasWellAtEquilibrium) {
  const double req = mol::ad_type_params(AdType::C).rii;  // C-C optimum
  const Ad4Weights w;
  const double at_opt = ad4_vdw_hbond(AdType::C, AdType::C, req, w);
  EXPECT_LT(at_opt, 0.0);
  EXPECT_LT(at_opt, ad4_vdw_hbond(AdType::C, AdType::C, req + 1.5, w));
  EXPECT_LT(at_opt, ad4_vdw_hbond(AdType::C, AdType::C, req - 1.0, w));
  // Repulsive wall is clamped, not infinite.
  EXPECT_LE(ad4_vdw_hbond(AdType::C, AdType::C, 0.1, w), w.vdw * 100.0 + 1e-9);
}

TEST(Scoring, HbondPairUsesDeeperWell) {
  const Ad4Weights w;
  // OA-HD at the 1.9 Å hydrogen-bond optimum is far deeper than a generic
  // vdW contact at its own optimum.
  const double hbond = ad4_vdw_hbond(AdType::OA, AdType::HD, 1.9, w);
  const double vdw = ad4_vdw_hbond(AdType::C, AdType::C, 4.0, w);
  EXPECT_LT(hbond, vdw);
  EXPECT_NEAR(hbond, -5.0 * w.hbond, 1e-9);
}

TEST(Scoring, Ad4PairElectrostaticsSign) {
  const Ad4Weights w;
  const double attract = ad4_pair_energy(AdType::C, 0.5, AdType::C, -0.5, 6.0, w);
  const double repel = ad4_pair_energy(AdType::C, 0.5, AdType::C, 0.5, 6.0, w);
  EXPECT_LT(attract, repel);
}

TEST(Scoring, VinaTermsVanishBeyondCutoff) {
  EXPECT_DOUBLE_EQ(vina_pair_energy(AdType::C, AdType::C, 8.0), 0.0);
  EXPECT_DOUBLE_EQ(vina_pair_energy(AdType::C, AdType::C, 100.0), 0.0);
}

TEST(Scoring, VinaHydrogensSkip) {
  EXPECT_DOUBLE_EQ(vina_pair_energy(AdType::H, AdType::C, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(vina_pair_energy(AdType::HD, AdType::OA, 1.9), 0.0);
}

TEST(Scoring, VinaSurfaceContactIsAttractive) {
  const auto kc = mol::vina_kind(AdType::C);
  const double touch = 2.0 * kc.radius;  // surface distance 0
  EXPECT_LT(vina_pair_energy(AdType::C, AdType::C, touch), 0.0);
}

TEST(Scoring, VinaOverlapIsRepulsive) {
  const auto kc = mol::vina_kind(AdType::C);
  const double overlapping = 2.0 * kc.radius - 1.5;
  EXPECT_GT(vina_pair_energy(AdType::C, AdType::C, overlapping), 0.0);
}

TEST(Scoring, VinaHbondDeepensPolarContact) {
  const auto ko = mol::vina_kind(AdType::OA);
  const auto kn = mol::vina_kind(AdType::NA);
  const double r = ko.radius + kn.radius - 0.7;
  const double polar = vina_pair_energy(AdType::OA, AdType::NA, r);
  (void)polar;
  // OA-OA is acceptor-acceptor: no H-bond term; OA-N (donor-less) neither.
  // Compare donor-acceptor vs acceptor-acceptor at the same surface dist.
  const double da = vina_pair_energy(AdType::OA, AdType::Mg, r);
  (void)da;
  // Direct check: the hbond ramp fires only for donor/acceptor pairs.
  VinaWeights w;
  const double base = vina_pair_energy(AdType::OA, AdType::OA,
                                       2 * ko.radius - 0.7, w);
  w.hbond = 0.0;
  const double no_hb = vina_pair_energy(AdType::OA, AdType::OA,
                                        2 * ko.radius - 0.7, w);
  EXPECT_DOUBLE_EQ(base, no_hb);  // OA-OA has no donor: term never fired
}

TEST(Scoring, VinaAffinityTorsionPenalty) {
  EXPECT_DOUBLE_EQ(vina_affinity(-10.0, 0), -10.0);
  EXPECT_GT(vina_affinity(-10.0, 8), -10.0);  // shallower with rotors
  EXPECT_LT(vina_affinity(-10.0, 8), 0.0);
}

// -------------------------------------------------------- neighbour list

mol::Molecule scattered_atoms() {
  mol::Molecule m{"grid"};
  for (int x = 0; x < 5; ++x)
    for (int y = 0; y < 5; ++y) {
      mol::Atom a;
      a.element = Element::C;
      a.pos = {x * 3.0, y * 3.0, 0.0};
      m.add_atom(a);
    }
  return m;
}

TEST(NeighborList, FindsExactlyAtomsWithinCutoff) {
  const mol::Molecule m = scattered_atoms();
  const NeighborList nl(m, 5.0);
  int found = 0;
  nl.for_each_within({0, 0, 0}, [&](int idx, double d2) {
    EXPECT_LE(d2, 25.0 + 1e-9);
    EXPECT_GE(idx, 0);
    ++found;
  });
  // Within 5 Å of the corner: (0,0),(3,0),(0,3),(3,3) = 4 atoms.
  EXPECT_EQ(found, 4);
}

TEST(NeighborList, MatchesBruteForceEverywhere) {
  const mol::Molecule m = scattered_atoms();
  const NeighborList nl(m, 4.2);
  for (double qx : {-1.0, 2.5, 7.0, 13.0}) {
    for (double qy : {0.0, 6.1, 12.0}) {
      const Vec3 q{qx, qy, 0.5};
      int fast = 0;
      nl.for_each_within(q, [&](int, double) { ++fast; });
      int brute = 0;
      for (const mol::Atom& a : m.atoms()) {
        if (mol::distance_sq(a.pos, q) <= 4.2 * 4.2) ++brute;
      }
      EXPECT_EQ(fast, brute) << qx << "," << qy;
    }
  }
}

TEST(NeighborList, SegmentCandidatesKeepEveryPointsNeighbours) {
  mol::Molecule m{"cloud"};
  Rng rng(71);
  for (int i = 0; i < 300; ++i) {
    mol::Atom a;
    a.element = Element::C;
    a.pos = {rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-20, 20)};
    m.add_atom(a);
  }
  const NeighborList nl(m, 8.0);
  std::vector<int> candidates;
  for (int trial = 0; trial < 200; ++trial) {
    // A run of points along x inside one cell, as AutoGrid's rows have.
    const double y = rng.uniform(-30, 30);
    const double z = rng.uniform(-30, 30);
    const double cell = nl.axis_cell(rng.uniform(-30, 30));
    const double x0 = cell * 8.0 + rng.uniform(0.0, 4.0);
    const double x1 = std::min(x0 + rng.uniform(0.0, 6.0), cell * 8.0 + 7.99);
    nl.segment_candidates({x0, y, z}, x1, candidates);
    for (double x = x0; x <= x1; x += 0.55) {
      std::vector<std::pair<int, double>> want;
      nl.for_each_within({x, y, z}, [&](int idx, double d2) {
        want.emplace_back(idx, d2);
      });
      std::vector<std::pair<int, double>> got;
      for (int idx : candidates) {
        const double d2 = mol::distance_sq(m.atom(idx).pos, {x, y, z});
        if (d2 <= 64.0) got.emplace_back(idx, d2);
      }
      EXPECT_EQ(got, want) << "segment " << x0 << ".." << x1 << " at " << x;
    }
  }
}

TEST(NeighborList, FarFlungAndNonFiniteAtoms) {
  // Atoms 2e7 Å apart would need ~10^20 cells of 8 Å; the list widens its
  // cells instead, and an atom with a NaN coordinate is nobody's
  // neighbour.
  mol::Molecule m{"far"};
  const Vec3 positions[] = {{-1e7, 0, 0}, {1e7, 5, -5}, {0, 0, 0}, {3, 4, 0},
                            {std::nan(""), 0, 0}, {-1e7 + 2, 0, 1}};
  for (const Vec3& p : positions) {
    mol::Atom a;
    a.element = Element::C;
    a.pos = p;
    m.add_atom(a);
  }
  const NeighborList nl(m, 8.0);
  for (const Vec3& q : {Vec3{0, 0, 0}, Vec3{-1e7, 0, 0}, Vec3{1e7, 5, -1},
                        Vec3{5e6, 0, 0}, Vec3{std::nan(""), 0, 0}}) {
    std::vector<int> fast;
    nl.for_each_within(q, [&](int idx, double) { fast.push_back(idx); });
    std::vector<int> brute;
    for (int i = 0; i < m.atom_count(); ++i) {
      if (mol::distance_sq(m.atom(i).pos, q) <= 64.0) brute.push_back(i);
    }
    std::sort(fast.begin(), fast.end());
    EXPECT_EQ(fast, brute) << q.x;
  }
}

TEST(IntramolecularPairs, ExcludesNearBondedPairs) {
  // Linear chain of 5 atoms: pairs at graph distance >= 3 are (0,3), (0,4),
  // (1,4). Bonds 1-2 and 2-3 rotate, and each of those pairs spans one.
  mol::Molecule m{"chain"};
  for (int i = 0; i < 5; ++i) {
    mol::Atom a;
    a.element = Element::C;
    a.pos = {i * 1.5, 0, 0};
    m.add_atom(a);
  }
  for (int i = 0; i + 1 < 5; ++i) m.add_bond(i, i + 1);
  m.perceive();
  const mol::TorsionTree tree = mol::TorsionTree::build(m);
  ASSERT_EQ(tree.torsion_count(), 2);
  const auto pairs = intramolecular_pairs(m, tree);
  EXPECT_EQ(pairs.size(), 3u);
  for (const auto& [i, j] : pairs) EXPECT_GE(j - i, 3);
  // Without rotatable bonds the chain is one rigid piece: no pair can move.
  EXPECT_TRUE(intramolecular_pairs(m, mol::TorsionTree::build(m, 3)).empty());
}

// ------------------------------------------------------------- autogrid

TEST(Autogrid, MapsHaveWellsNearAtoms) {
  mol::Molecule rec{"R"};
  mol::Atom a;
  a.element = Element::C;
  a.pos = {0, 0, 0};
  rec.add_atom(a);
  rec.perceive();
  GridMapCalculator calc(rec);
  GridBox box = GridBox::around({0, 0, 0}, 6.0, 0.5);
  const GridMapSet maps = calc.calculate(box, {AdType::C});
  const GridMap* cmap = maps.affinity_for(AdType::C);
  ASSERT_NE(cmap, nullptr);
  // At the C-C optimum (4 Å) the affinity is negative; on top of the atom
  // it is strongly positive.
  EXPECT_LT(cmap->sample({4.0, 0, 0}), 0.0);
  EXPECT_GT(cmap->sample({0.6, 0, 0}), 0.0);
  EXPECT_EQ(maps.affinity_for(AdType::OA), nullptr);
  EXPECT_EQ(maps.file_count(), 1 + 4);  // C map, e, d, fld, xyz

  // A Vina set has no map for hydrogen types and no e/d maps.
  const GridMapSet vina =
      calc.calculate(box, {AdType::C, AdType::HD, AdType::OA},
                     ScoringFunction::Vina);
  EXPECT_EQ(vina.affinity.size(), 2u);
  EXPECT_EQ(vina.affinity_for(AdType::HD), nullptr);
  EXPECT_LT(vina.affinity_for(AdType::C)->sample({4.0, 0, 0}), 0.0);
  EXPECT_EQ(vina.file_count(), 2 + 2);  // C and OA maps, fld, xyz
}

TEST(Autogrid, ElectrostaticMapSignTracksCharge) {
  mol::Molecule rec{"R"};
  mol::Atom a;
  a.element = Element::O;
  a.pos = {0, 0, 0};
  a.partial_charge = -0.5;
  rec.add_atom(a);
  rec.perceive();
  rec.mutable_atom(0).partial_charge = -0.5;
  rec.perceive();
  GridMapCalculator calc(rec);
  const GridMapSet maps = calc.calculate(GridBox::around({0, 0, 0}, 5.0, 0.5),
                                         {AdType::C});
  // A negative receptor charge makes the unit-positive-charge map negative.
  EXPECT_LT(maps.electrostatic.sample({3.0, 0, 0}), 0.0);
}

TEST(Gpf, RoundTrip) {
  GridParameterFile gpf;
  gpf.box = GridBox::around({1, 2, 3}, 10.0, 0.375);
  gpf.ligand_types = {AdType::C, AdType::OA, AdType::HD};
  gpf.receptor_file = "2HHN.pdbqt";
  const GridParameterFile back = GridParameterFile::parse(gpf.to_text());
  EXPECT_EQ(back.box.npts, gpf.box.npts);
  EXPECT_NEAR(back.box.center.y, 2.0, 1e-6);
  EXPECT_EQ(back.ligand_types, gpf.ligand_types);
  EXPECT_EQ(back.receptor_file, "2HHN.pdbqt");
}

TEST(Gpf, ParseRejectsMissingNpts) {
  EXPECT_THROW(GridParameterFile::parse("spacing 0.375\n"), ParseError);
}

TEST(Gpf, ParseRejectsDegenerateBox) {
  // npts 0 0 0 parses into a one-point box, which used to abort the
  // process in GridMap's constructor instead of failing the activation.
  EXPECT_THROW(GridParameterFile::parse("npts 0 0 0\nspacing 0.375\n"),
               ParseError);
  EXPECT_THROW(GridParameterFile::parse("npts 40 0 40\nspacing 0.375\n"),
               ParseError);
  EXPECT_THROW(  // points - 1 = INT_MAX: the + 1 would overflow an int
      GridParameterFile::parse("npts 2147483647 40 40\nspacing 0.375\n"),
      ParseError);
  EXPECT_THROW(GridParameterFile::parse("npts 40 40 40\nspacing 0\n"),
               ParseError);
  EXPECT_THROW(GridParameterFile::parse("npts 40 40 40\nspacing -0.5\n"),
               ParseError);
  EXPECT_NO_THROW(GridParameterFile::parse("npts 1 1 1\nspacing 0.375\n"));
}

TEST(Gpf, ParseRejectsNonFiniteCenter) {
  // A NaN centre used to build a map set whose every value was 0.
  EXPECT_THROW(GridParameterFile::parse(
                   "npts 40 40 40\nspacing 0.375\ngridcenter nan 0 0\n"),
               ParseError);
  EXPECT_THROW(GridParameterFile::parse(
                   "npts 40 40 40\nspacing 0.375\ngridcenter 0 inf 0\n"),
               ParseError);
  EXPECT_NO_THROW(GridParameterFile::parse(
      "npts 40 40 40\nspacing 0.375\ngridcenter 1.5 -2 0\n"));
}

// ----------------------------------------------------------------- DPF

TEST(Dpf, RoundTrip) {
  DockingParameterFile dpf;
  dpf.ligand_file = "lig.pdbqt";
  dpf.receptor_maps_prefix = "receptor";
  dpf.ga_runs = 7;
  dpf.ga_pop_size = 33;
  dpf.ga_num_evals = 12345;
  dpf.seed = 99;
  const DockingParameterFile back = DockingParameterFile::parse(dpf.to_text());
  EXPECT_EQ(back.ligand_file, "lig.pdbqt");
  EXPECT_EQ(back.receptor_maps_prefix, "receptor");
  EXPECT_EQ(back.ga_runs, 7);
  EXPECT_EQ(back.ga_pop_size, 33);
  EXPECT_EQ(back.ga_num_evals, 12345);
  EXPECT_EQ(back.seed, 99u);
}

TEST(Dpf, ParseRejectsNonPositiveRmstol) {
  // Clustering asserts a positive tolerance, so these used to abort the
  // process after parsing instead of failing the activation.
  DockingParameterFile dpf;
  const std::string base = dpf.to_text();
  for (const char* bad : {"rmstol 0\n", "rmstol -1.5\n", "rmstol nan\n",
                          "rmstol inf\n"}) {
    EXPECT_THROW(DockingParameterFile::parse(base + bad), ParseError) << bad;
  }
  EXPECT_DOUBLE_EQ(DockingParameterFile::parse(base + "rmstol 0.5\n").rmstol,
                   0.5);
}

TEST(Dpf, ParseRejectsNonFiniteRates) {
  const std::string base = DockingParameterFile{}.to_text();
  for (const char* bad : {"ga_mutation_rate nan\n", "ga_crossover_rate inf\n",
                          "ga_mutation_rate -inf\n"}) {
    EXPECT_THROW(DockingParameterFile::parse(base + bad), ParseError) << bad;
  }
}

TEST(VinaConfigFile, ParseRejectsNonFiniteNumbers) {
  const std::string base = "exhaustiveness = 8\n";
  for (const char* bad : {"center_x = nan\n", "center_y = inf\n",
                          "center_z = -inf\n", "energy_range = nan\n"}) {
    EXPECT_THROW(VinaConfig::parse(base + bad), ParseError) << bad;
  }
  EXPECT_NO_THROW(VinaConfig::parse(base + "center_x = -1.5\n"));
}

TEST(VinaConfigFile, ParseRejectsDegenerateBox) {
  const std::string base = "exhaustiveness = 8\n";
  for (const char* bad :
       {"size_x = -4\n", "size_y = 0\n", "size_z = 0.2\n", "size_x = nan\n",
        "size_y = inf\n", "size_z = 1e300\n", "num_modes = 0\n",
        "num_modes = -1\n"}) {
    EXPECT_THROW(VinaConfig::parse(base + bad), ParseError) << bad;
  }
  // One interval (two points) per axis is the smallest valid box.
  const VinaConfig smallest =
      VinaConfig::parse(base + "size_x = 0.4\nsize_y = 0.4\nsize_z = 0.4\n");
  EXPECT_EQ(smallest.box.npts, (std::array<int, 3>{2, 2, 2}));
}

TEST(VinaConfigFile, RoundTrip) {
  VinaConfig cfg;
  cfg.receptor_file = "rec.pdbqt";
  cfg.ligand_file = "lig.pdbqt";
  cfg.box = GridBox::around({5, 6, 7}, 9.0, 0.375);
  cfg.exhaustiveness = 12;
  cfg.num_modes = 4;
  cfg.seed = 31337;
  const VinaConfig back = VinaConfig::parse(cfg.to_text());
  EXPECT_EQ(back.receptor_file, "rec.pdbqt");
  EXPECT_EQ(back.exhaustiveness, 12);
  EXPECT_EQ(back.num_modes, 4);
  EXPECT_EQ(back.seed, 31337u);
  EXPECT_NEAR(back.box.center.x, 5.0, 1e-6);
  EXPECT_NEAR(back.box.extent().x, cfg.box.extent().x, 0.5);
}

}  // namespace
}  // namespace scidock::dock
