// Unit tests for the molecule model: elements, perception, typing,
// charges, torsion trees, RMSD.

#include <gtest/gtest.h>

#include <numbers>

#include "mol/atom_typing.hpp"
#include "util/error.hpp"
#include "mol/charges.hpp"
#include "mol/elements.hpp"
#include "mol/molecule.hpp"
#include "mol/prepare.hpp"
#include "mol/torsion.hpp"

namespace scidock::mol {
namespace {

Atom make_atom(Element e, Vec3 pos, std::string name = "X") {
  Atom a;
  a.element = e;
  a.pos = pos;
  a.name = std::move(name);
  return a;
}

/// Ethanol-like chain: C-C-O-H plus hydrogens on carbons.
Molecule ethanol() {
  Molecule m{"ETH"};
  const int c1 = m.add_atom(make_atom(Element::C, {0, 0, 0}, "C1"));
  const int c2 = m.add_atom(make_atom(Element::C, {1.5, 0, 0}, "C2"));
  const int o = m.add_atom(make_atom(Element::O, {2.2, 1.2, 0}, "O1"));
  const int h = m.add_atom(make_atom(Element::H, {3.1, 1.2, 0}, "HO"));
  const int h1 = m.add_atom(make_atom(Element::H, {-0.6, 0.9, 0}, "H1"));
  const int h2 = m.add_atom(make_atom(Element::H, {-0.6, -0.9, 0}, "H2"));
  m.add_bond(c1, c2);
  m.add_bond(c2, o);
  m.add_bond(o, h);
  m.add_bond(c1, h1);
  m.add_bond(c1, h2);
  return m;
}

/// Benzene ring (aromatic bonds).
Molecule benzene() {
  Molecule m{"BNZ"};
  for (int i = 0; i < 6; ++i) {
    const double ang = 2.0 * std::numbers::pi * i / 6.0;
    m.add_atom(make_atom(Element::C, {1.39 * std::cos(ang), 1.39 * std::sin(ang), 0}));
  }
  for (int i = 0; i < 6; ++i) m.add_bond(i, (i + 1) % 6, BondOrder::Aromatic);
  return m;
}

// -------------------------------------------------------------- elements

TEST(Elements, SymbolLookupIsCaseInsensitive) {
  EXPECT_EQ(element_from_symbol("CL"), Element::Cl);
  EXPECT_EQ(element_from_symbol("cl"), Element::Cl);
  EXPECT_EQ(element_from_symbol(" Fe "), Element::Fe);
  EXPECT_EQ(element_from_symbol("Xx"), std::nullopt);
}

TEST(Elements, TableIsConsistent) {
  for (int i = 0; i < element_count(); ++i) {
    const ElementInfo& info = element_info_at(i);
    if (info.element == Element::Unknown) continue;
    EXPECT_GT(info.atomic_number, 0) << info.symbol;
    EXPECT_GT(info.atomic_mass, 0.0) << info.symbol;
    EXPECT_GT(info.covalent_radius, 0.0) << info.symbol;
    EXPECT_GT(info.vdw_radius, info.covalent_radius) << info.symbol;
    EXPECT_EQ(&element_info(info.element), &info);
  }
}

TEST(Elements, PdbAtomNameDeduction) {
  EXPECT_EQ(element_from_pdb_atom_name("CA", true), Element::C);   // alpha C
  EXPECT_EQ(element_from_pdb_atom_name("CA", false), Element::Ca); // ion
  EXPECT_EQ(element_from_pdb_atom_name("CL", false), Element::Cl);
  EXPECT_EQ(element_from_pdb_atom_name("HG", false), Element::Hg);
  EXPECT_EQ(element_from_pdb_atom_name("1HB", true), Element::H);
  EXPECT_EQ(element_from_pdb_atom_name("OD1", true), Element::O);
  EXPECT_EQ(element_from_pdb_atom_name("", true), Element::Unknown);
}

TEST(Elements, MetalsFlagged) {
  EXPECT_TRUE(element_info(Element::Zn).is_metal);
  EXPECT_TRUE(element_info(Element::Hg).is_metal);
  EXPECT_FALSE(element_info(Element::C).is_metal);
}

// ---------------------------------------------------------- atom typing

TEST(AtomTyping, ParamsRoundTripByName) {
  for (int t = 0; t < kAdTypeCount; ++t) {
    const auto type = static_cast<AdType>(t);
    EXPECT_EQ(ad_type_from_name(ad_type_name(type)), type);
  }
  EXPECT_EQ(ad_type_from_name("ZZ"), std::nullopt);
}

TEST(AtomTyping, HgIsUnsupported) {
  EXPECT_FALSE(ad_type_params(AdType::Hg).supported);
  for (int t = 0; t < kAdTypeCount; ++t) {
    if (static_cast<AdType>(t) != AdType::Hg) {
      EXPECT_TRUE(ad_type_params(static_cast<AdType>(t)).supported);
    }
  }
}

TEST(AtomTyping, ContextRules) {
  AtomContext ctx;
  ctx.element = Element::H;
  EXPECT_EQ(assign_ad_type(ctx), AdType::H);
  ctx.bonded_to_hetero = true;
  EXPECT_EQ(assign_ad_type(ctx), AdType::HD);  // polar hydrogen

  ctx = {};
  ctx.element = Element::C;
  EXPECT_EQ(assign_ad_type(ctx), AdType::C);
  ctx.aromatic = true;
  EXPECT_EQ(assign_ad_type(ctx), AdType::A);

  ctx = {};
  ctx.element = Element::N;
  ctx.heavy_degree = 2;
  EXPECT_EQ(assign_ad_type(ctx), AdType::NA);  // free lone pair
  ctx.has_hydrogen = true;
  EXPECT_EQ(assign_ad_type(ctx), AdType::N);

  ctx = {};
  ctx.element = Element::O;
  EXPECT_EQ(assign_ad_type(ctx), AdType::OA);
}

TEST(AtomTyping, VinaKinds) {
  EXPECT_TRUE(vina_kind(AdType::H).skip);
  EXPECT_TRUE(vina_kind(AdType::HD).skip);
  EXPECT_FALSE(vina_kind(AdType::C).skip);
  EXPECT_TRUE(vina_kind(AdType::C).hydrophobic);
  EXPECT_TRUE(vina_kind(AdType::OA).acceptor);
  EXPECT_TRUE(vina_kind(AdType::HD).donor);
  EXPECT_GT(vina_kind(AdType::C).radius, 1.0);
}

// ------------------------------------------------------------- molecule

TEST(Molecule, PerceptionBuildsAdjacency) {
  Molecule m = ethanol();
  m.perceive();
  EXPECT_EQ(m.neighbors(0).size(), 3u);  // C1: C2, H1, H2
  EXPECT_EQ(m.neighbors(2).size(), 2u);  // O: C2, HO
  EXPECT_FALSE(m.in_ring(0));
}

TEST(Molecule, EthanolTyping) {
  Molecule m = ethanol();
  m.perceive();
  EXPECT_EQ(m.atom(0).ad_type, AdType::C);
  EXPECT_EQ(m.atom(2).ad_type, AdType::OA);
  EXPECT_EQ(m.atom(3).ad_type, AdType::HD);  // hydroxyl H
  EXPECT_EQ(m.atom(4).ad_type, AdType::H);   // carbon H
}

TEST(Molecule, BenzeneIsAromaticRing) {
  Molecule m = benzene();
  m.perceive();
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(m.in_ring(i)) << i;
    EXPECT_EQ(m.atom(i).ad_type, AdType::A) << i;
  }
}

TEST(Molecule, RingDetectionViaBridges) {
  // Ring with a tail: atoms 0-1-2 form a triangle, 3 hangs off 0.
  Molecule m{"tri"};
  for (int i = 0; i < 4; ++i) m.add_atom(make_atom(Element::C, {double(i), 0, 0}));
  m.add_bond(0, 1);
  m.add_bond(1, 2);
  m.add_bond(2, 0);
  m.add_bond(0, 3);
  m.perceive();
  EXPECT_TRUE(m.in_ring(0));
  EXPECT_TRUE(m.in_ring(1));
  EXPECT_TRUE(m.in_ring(2));
  EXPECT_FALSE(m.in_ring(3));
}

TEST(Molecule, GeometryHelpers) {
  Molecule m = ethanol();
  EXPECT_EQ(m.heavy_atom_count(), 3);
  EXPECT_GT(m.molecular_weight(), 40.0);
  EXPECT_LT(m.molecular_weight(), 50.0);  // C2H6O = 46
  EXPECT_TRUE(m.contains_element(Element::O));
  EXPECT_FALSE(m.contains_element(Element::Hg));
  const Vec3 before = m.center();
  m.translate({1, 2, 3});
  const Vec3 after = m.center();
  EXPECT_NEAR(after.x - before.x, 1.0, 1e-12);
  EXPECT_NEAR(after.z - before.z, 3.0, 1e-12);
}

TEST(Molecule, RotationPreservesInternalDistances) {
  Molecule m = ethanol();
  const double d_before = distance(m.atom(0).pos, m.atom(2).pos);
  m.rotate(Quaternion::from_axis_angle({1, 1, 0}, 1.0), m.center());
  EXPECT_NEAR(distance(m.atom(0).pos, m.atom(2).pos), d_before, 1e-12);
}

TEST(Molecule, InferBondsFromGeometryRecoversEthanol) {
  Molecule m = ethanol();
  const int expected_bonds = m.bond_count();
  Molecule no_bonds{"copy"};
  for (const Atom& a : m.atoms()) no_bonds.add_atom(a);
  no_bonds.infer_bonds_from_geometry();
  EXPECT_EQ(no_bonds.bond_count(), expected_bonds);
}

TEST(Molecule, PerceiveRetypeFalseKeepsTypes) {
  Molecule m = ethanol();
  m.perceive();
  m.mutable_atom(0).ad_type = AdType::Fe;  // deliberately wrong
  m.perceive(/*retype=*/false);
  EXPECT_EQ(m.atom(0).ad_type, AdType::Fe);
  Molecule m2 = ethanol();
  m2.perceive(/*retype=*/true);
  EXPECT_EQ(m2.atom(0).ad_type, AdType::C);
}

TEST(Molecule, FullyParameterised) {
  Molecule m = ethanol();
  m.perceive();
  EXPECT_TRUE(m.fully_parameterised());
  Molecule hg{"HG"};
  hg.add_atom(make_atom(Element::Hg, {0, 0, 0}));
  hg.perceive();
  EXPECT_FALSE(hg.fully_parameterised());
}

TEST(Molecule, AdTypesPresentSortedUnique) {
  Molecule m = ethanol();
  m.perceive();
  const auto types = m.ad_types_present();
  EXPECT_EQ(types.size(), 4u);  // H, HD, C, OA
  for (std::size_t i = 1; i < types.size(); ++i) {
    EXPECT_LT(static_cast<int>(types[i - 1]), static_cast<int>(types[i]));
  }
}

// -------------------------------------------------------------- charges

TEST(Charges, NetChargeIsZero) {
  Molecule m = ethanol();
  assign_gasteiger_charges(m);
  EXPECT_NEAR(total_charge(m), 0.0, 1e-9);
}

TEST(Charges, ElectronegativityOrdering) {
  Molecule m = ethanol();
  assign_gasteiger_charges(m);
  // Oxygen pulls density: most negative atom; its hydroxyl H most positive.
  EXPECT_LT(m.atom(2).partial_charge, 0.0);
  EXPECT_GT(m.atom(3).partial_charge, 0.0);
  EXPECT_LT(m.atom(2).partial_charge, m.atom(0).partial_charge);
}

TEST(Charges, DeterministicAcrossRuns) {
  Molecule a = ethanol();
  Molecule b = ethanol();
  assign_gasteiger_charges(a);
  assign_gasteiger_charges(b);
  for (int i = 0; i < a.atom_count(); ++i) {
    EXPECT_DOUBLE_EQ(a.atom(i).partial_charge, b.atom(i).partial_charge);
  }
}

// -------------------------------------------------------------- torsion

TEST(Torsion, EthanolHasOneRotatableBond) {
  Molecule m = ethanol();
  m.perceive();
  const TorsionTree tree = TorsionTree::build(m);
  // C1-C2 splits {C1,H1,H2} | {C2,O,H}: both sides >= 2 heavy? C1 side has
  // only one heavy atom, so only C2-O qualifies... with min_fragment=2 the
  // C2-O bond leaves {O,H} = 1 heavy: no rotatable bonds at all.
  EXPECT_EQ(tree.torsion_count(), 0);
  // With min_fragment=1 both backbone bonds rotate.
  const TorsionTree loose = TorsionTree::build(m, 1);
  EXPECT_EQ(loose.torsion_count(), 2);
  EXPECT_EQ(loose.degrees_of_freedom(), 8);
}

TEST(Torsion, RingBondsAreRigid) {
  Molecule m = benzene();
  m.perceive();
  EXPECT_EQ(TorsionTree::build(m, 1).torsion_count(), 0);
}

TEST(Torsion, BiphenylLinkRotates) {
  // Two rings joined by a single bond: exactly one torsion.
  Molecule m{"biphenyl"};
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < 6; ++i) {
      const double ang = 2.0 * std::numbers::pi * i / 6.0;
      m.add_atom(make_atom(Element::C,
                           {1.39 * std::cos(ang) + r * 5.0, 1.39 * std::sin(ang), 0}));
    }
  }
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < 6; ++i) {
      m.add_bond(r * 6 + i, r * 6 + (i + 1) % 6, BondOrder::Aromatic);
    }
  }
  m.add_bond(0, 6, BondOrder::Single);
  m.perceive();
  const TorsionTree tree = TorsionTree::build(m);
  EXPECT_EQ(tree.torsion_count(), 1);
  EXPECT_EQ(tree.root_atoms().size(), 6u);  // one ring is the root
  EXPECT_EQ(tree.branches()[0].moving_atoms.size(), 5u);  // other ring minus pivot
}

TEST(Torsion, ApplyIdentityReproducesReference) {
  Molecule m = ethanol();
  m.perceive();
  const TorsionTree tree = TorsionTree::build(m, 1);
  const auto ref = m.coordinates();
  const auto out = tree.apply(ref, Pose{}, std::vector<double>(2, 0.0));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(distance(ref[i], out[i]), 0.0, 1e-12);
  }
}

TEST(Torsion, ApplyPreservesBondLengths) {
  Molecule m = ethanol();
  m.perceive();
  const TorsionTree tree = TorsionTree::build(m, 1);
  Pose pose;
  pose.rotation = Quaternion::from_axis_angle({1, 2, 3}, 0.8);
  pose.translation = {4, -2, 1};
  const auto out = tree.apply(m.coordinates(), pose, {0.9, -1.3});
  for (const Bond& b : m.bonds()) {
    const double before = distance(m.atom(b.a).pos, m.atom(b.b).pos);
    const double after = distance(out[static_cast<std::size_t>(b.a)],
                                  out[static_cast<std::size_t>(b.b)]);
    EXPECT_NEAR(before, after, 1e-9);
  }
}

TEST(Torsion, TorsionMovesOnlyTheBranch) {
  Molecule m = ethanol();
  m.perceive();
  const TorsionTree tree = TorsionTree::build(m, 1);
  const auto ref = m.coordinates();
  std::vector<double> angles(2, 0.0);
  angles[0] = 1.0;
  const auto out = tree.apply(ref, Pose{}, angles);
  // Root atoms stay put.
  for (int i : tree.root_atoms()) {
    EXPECT_NEAR(distance(ref[static_cast<std::size_t>(i)],
                         out[static_cast<std::size_t>(i)]),
                0.0, 1e-9);
  }
  // At least one moving atom moved.
  double moved = 0.0;
  for (int i : tree.branches()[0].moving_atoms) {
    moved += distance(ref[static_cast<std::size_t>(i)],
                      out[static_cast<std::size_t>(i)]);
  }
  EXPECT_GT(moved, 0.1);
}

// ---------------------------------------------------------------- RMSD

TEST(Rmsd, ZeroForIdentical) {
  const std::vector<Vec3> a{{0, 0, 0}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(rmsd(a, a), 0.0);
}

TEST(Rmsd, UniformShift) {
  const std::vector<Vec3> a{{0, 0, 0}, {1, 0, 0}};
  const std::vector<Vec3> b{{3, 0, 0}, {4, 0, 0}};
  EXPECT_DOUBLE_EQ(rmsd(a, b), 3.0);
}

TEST(Rmsd, HeavyAtomOnlyIgnoresHydrogens) {
  Molecule a = ethanol();
  Molecule b = ethanol();
  // Move only a hydrogen: heavy-atom RMSD unaffected.
  b.mutable_atom(4).pos += Vec3{5, 0, 0};
  EXPECT_DOUBLE_EQ(heavy_atom_rmsd(a, b), 0.0);
  b.mutable_atom(0).pos += Vec3{3, 0, 0};
  EXPECT_GT(heavy_atom_rmsd(a, b), 1.0);
}

// -------------------------------------------------------------- prepare

TEST(Prepare, LigandGetsChargesTypesTorsionsPdbqt) {
  const mol::PreparedLigand prep = prepare_ligand(ethanol());
  EXPECT_NEAR(total_charge(prep.molecule), 0.0, 1e-9);
  EXPECT_FALSE(prep.pdbqt.empty());
  EXPECT_NE(prep.pdbqt.find("ROOT"), std::string::npos);
  EXPECT_NE(prep.pdbqt.find("TORSDOF"), std::string::npos);
}

TEST(Prepare, ReceptorStripsWaters) {
  Molecule m = ethanol();
  Atom water = make_atom(Element::O, {30, 0, 0}, "O");
  water.residue_name = "HOH";
  water.hetero = true;
  m.add_atom(water);
  const PreparedReceptor prep = prepare_receptor(m);
  EXPECT_EQ(prep.molecule.atom_count(), 6);  // water removed
}

TEST(Prepare, ReceptorRejectsHg) {
  Molecule m = ethanol();
  m.add_atom(make_atom(Element::Hg, {10, 0, 0}, "HG"));
  EXPECT_THROW(prepare_receptor(m), ActivityError);
}

TEST(Prepare, EmptyInputsRejected) {
  EXPECT_THROW(prepare_ligand(Molecule{"empty"}), Error);
  EXPECT_THROW(prepare_receptor(Molecule{"empty"}), Error);
}

}  // namespace
}  // namespace scidock::mol
