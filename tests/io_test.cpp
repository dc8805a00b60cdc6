// Round-trip and robustness tests for the four molecular file formats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "data/generator.hpp"
#include "dock/dlg.hpp"
#include "mol/charges.hpp"
#include "mol/io_mol2.hpp"
#include "mol/io_pdb.hpp"
#include "mol/io_pdbqt.hpp"
#include "mol/io_sdf.hpp"
#include "mol/prepare.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::mol {
namespace {

Molecule sample_ligand() { return data::make_ligand("042"); }
Molecule sample_receptor() {
  data::GeneratorOptions opts;
  opts.min_residues = 10;
  opts.max_residues = 16;
  return data::make_receptor("1AIM", opts);
}

void expect_same_structure(const Molecule& a, const Molecule& b,
                           double tol = 1e-3) {
  ASSERT_EQ(a.atom_count(), b.atom_count());
  for (int i = 0; i < a.atom_count(); ++i) {
    EXPECT_EQ(a.atom(i).element, b.atom(i).element) << "atom " << i;
    EXPECT_NEAR(a.atom(i).pos.x, b.atom(i).pos.x, tol);
    EXPECT_NEAR(a.atom(i).pos.y, b.atom(i).pos.y, tol);
    EXPECT_NEAR(a.atom(i).pos.z, b.atom(i).pos.z, tol);
  }
}

// ----------------------------------------------------------------- PDB

TEST(PdbIo, RoundTripPreservesAtoms) {
  const Molecule m = sample_receptor();
  const Molecule back = read_pdb(write_pdb(m), m.name());
  expect_same_structure(m, back);
  EXPECT_EQ(back.name(), m.name());
}

TEST(PdbIo, PreservesResidueMetadata) {
  const Molecule m = sample_receptor();
  const Molecule back = read_pdb(write_pdb(m));
  for (int i = 0; i < m.atom_count(); ++i) {
    EXPECT_EQ(m.atom(i).residue_name, back.atom(i).residue_name);
    EXPECT_EQ(m.atom(i).residue_seq, back.atom(i).residue_seq);
    EXPECT_EQ(m.atom(i).hetero, back.atom(i).hetero);
  }
}

TEST(PdbIo, ParsesMinimalRecord) {
  const Molecule m = read_pdb(
      "ATOM      1  CA  CYS A   1      11.000  22.000  33.000  1.00  0.00"
      "           C\nEND\n");
  ASSERT_EQ(m.atom_count(), 1);
  EXPECT_EQ(m.atom(0).element, Element::C);
  EXPECT_NEAR(m.atom(0).pos.y, 22.0, 1e-9);
  EXPECT_EQ(m.atom(0).residue_name, "CYS");
}

TEST(PdbIo, RejectsEmptyAndTruncated) {
  EXPECT_THROW(read_pdb("REMARK nothing here\n"), ParseError);
  EXPECT_THROW(read_pdb("ATOM      1  CA  CYS A   1      11.0\n"), ParseError);
}

TEST(PdbIo, HetatmElementFromName) {
  const Molecule m = read_pdb(
      "HETATM    1 HG    HG A   9      1.000   2.000   3.000  1.00  0.00\n");
  EXPECT_EQ(m.atom(0).element, Element::Hg);
  EXPECT_TRUE(m.atom(0).hetero);
}

// ----------------------------------------------------------------- SDF

TEST(SdfIo, RoundTripPreservesAtomsAndBonds) {
  const Molecule m = sample_ligand();
  const Molecule back = read_sdf(write_sdf(m), m.name());
  expect_same_structure(m, back, 1e-3);
  EXPECT_EQ(back.bond_count(), m.bond_count());
}

TEST(SdfIo, PreservesBondOrders) {
  const Molecule m = sample_ligand();
  const Molecule back = read_sdf(write_sdf(m));
  for (int i = 0; i < m.bond_count(); ++i) {
    EXPECT_EQ(m.bonds()[static_cast<std::size_t>(i)].order,
              back.bonds()[static_cast<std::size_t>(i)].order);
  }
}

TEST(SdfIo, MultiRecordDocuments) {
  const std::string doc = write_sdf(data::make_ligand("042")) +
                          write_sdf(data::make_ligand("074"));
  const auto all = read_sdf_multi(doc);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name(), "042");
  EXPECT_EQ(all[1].name(), "074");
}

TEST(SdfIo, RejectsGarbage) {
  EXPECT_THROW(read_sdf(""), ParseError);
  EXPECT_THROW(read_sdf("x\ny\nz\nnot-a-counts-line\n$$$$\n"), ParseError);
}

TEST(SdfIo, RejectsOutOfRangeBondIndices) {
  const std::string bad =
      "m\n\n\n  2  1  0  0  0  0  0  0  0  0999 V2000\n"
      "    0.0000    0.0000    0.0000 C   0  0\n"
      "    1.5000    0.0000    0.0000 C   0  0\n"
      "  1  9  1  0\nM  END\n$$$$\n";
  EXPECT_THROW(read_sdf(bad), ParseError);
}

// A self-bond line used to reach Molecule::add_bond's assert and abort the
// whole process; it must fail the one parse instead.
TEST(SdfIo, RejectsSelfBond) {
  const std::string bad =
      "m\n\n\n  2  1  0  0  0  0  0  0  0  0999 V2000\n"
      "    0.0000    0.0000    0.0000 C   0  0\n"
      "    1.5000    0.0000    0.0000 C   0  0\n"
      "  1  1  1  0\nM  END\n$$$$\n";
  EXPECT_THROW(read_sdf(bad), ParseError);
}

// ---------------------------------------------------------------- MOL2

TEST(Mol2Io, RoundTripPreservesStructure) {
  Molecule m = sample_ligand();
  const Molecule back = read_mol2(write_mol2(m), m.name());
  expect_same_structure(m, back, 1e-3);
  EXPECT_EQ(back.bond_count(), m.bond_count());
}

TEST(Mol2Io, PreservesCharges) {
  Molecule m = sample_ligand();
  assign_gasteiger_charges(m);
  const Molecule back = read_mol2(write_mol2(m));
  for (int i = 0; i < m.atom_count(); ++i) {
    EXPECT_NEAR(m.atom(i).partial_charge, back.atom(i).partial_charge, 1e-3);
  }
}

TEST(Mol2Io, ParsesSybylTypes) {
  const std::string text =
      "@<TRIPOS>MOLECULE\nmini\n 2 1 1 0 0\nSMALL\nNONE\n\n"
      "@<TRIPOS>ATOM\n"
      "1 C1 0.0 0.0 0.0 C.ar 1 LIG 0.1\n"
      "2 N1 1.4 0.0 0.0 N.3 1 LIG -0.1\n"
      "@<TRIPOS>BOND\n1 1 2 ar\n";
  const Molecule m = read_mol2(text);
  ASSERT_EQ(m.atom_count(), 2);
  EXPECT_EQ(m.atom(0).element, Element::C);
  EXPECT_EQ(m.atom(1).element, Element::N);
  EXPECT_EQ(m.bonds()[0].order, BondOrder::Aromatic);
  EXPECT_EQ(m.name(), "mini");
}

TEST(Mol2Io, RejectsSelfBond) {
  const std::string bad =
      "@<TRIPOS>MOLECULE\nmini\n 2 1 1 0 0\nSMALL\nNONE\n\n"
      "@<TRIPOS>ATOM\n"
      "1 C1 0.0 0.0 0.0 C.3 1 LIG 0.0\n"
      "2 C2 1.5 0.0 0.0 C.3 1 LIG 0.0\n"
      "@<TRIPOS>BOND\n1 2 2 1\n";
  EXPECT_THROW(read_mol2(bad), ParseError);
}

TEST(Mol2Io, RejectsMissingAtomSection) {
  EXPECT_THROW(read_mol2("@<TRIPOS>MOLECULE\nx\n1 0\n"), ParseError);
}

// --------------------------------------------------------------- PDBQT

TEST(PdbqtIo, RigidRoundTrip) {
  Molecule m = sample_receptor();
  const PreparedReceptor prep = prepare_receptor(m);
  const PdbqtModel model = read_pdbqt(prep.pdbqt, m.name());
  EXPECT_FALSE(model.is_ligand);
  EXPECT_EQ(model.molecule.atom_count(), prep.molecule.atom_count());
  for (int i = 0; i < model.molecule.atom_count(); ++i) {
    EXPECT_EQ(model.molecule.atom(i).ad_type, prep.molecule.atom(i).ad_type);
    EXPECT_NEAR(model.molecule.atom(i).partial_charge,
                prep.molecule.atom(i).partial_charge, 1e-3);
  }
}

TEST(PdbqtIo, LigandTorsionTreeRoundTrip) {
  const PreparedLigand prep = prepare_ligand(sample_ligand());
  const PdbqtModel model = read_pdbqt(prep.pdbqt);
  EXPECT_TRUE(model.is_ligand);
  EXPECT_EQ(model.torsions.torsion_count(), prep.torsions.torsion_count());
  EXPECT_EQ(model.torsdof, prep.torsions.torsion_count());
  EXPECT_EQ(model.torsions.root_atoms().size(), prep.torsions.root_atoms().size());
  // Branch moving-set sizes match (order may differ).
  std::multiset<std::size_t> a, b;
  for (const auto& br : prep.torsions.branches()) a.insert(br.moving_atoms.size());
  for (const auto& br : model.torsions.branches()) b.insert(br.moving_atoms.size());
  EXPECT_EQ(a, b);
}

TEST(PdbqtIo, LigandCoordinatesSurvive) {
  const PreparedLigand prep = prepare_ligand(sample_ligand());
  const PdbqtModel model = read_pdbqt(prep.pdbqt);
  // Atom order differs (branch emission); sort both coordinate sets and
  // compare within the PDBQT text precision (3 decimals).
  auto sorted = [](const Molecule& m) {
    std::vector<std::tuple<double, double, double>> pts;
    for (const Atom& atom : m.atoms()) {
      pts.emplace_back(atom.pos.x, atom.pos.y, atom.pos.z);
    }
    std::sort(pts.begin(), pts.end());
    return pts;
  };
  const auto a = sorted(prep.molecule);
  const auto b = sorted(model.molecule);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::get<0>(a[i]), std::get<0>(b[i]), 2e-3);
    EXPECT_NEAR(std::get<1>(a[i]), std::get<1>(b[i]), 2e-3);
    EXPECT_NEAR(std::get<2>(a[i]), std::get<2>(b[i]), 2e-3);
  }
}

TEST(PdbqtIo, RejectsUnbalancedBranches) {
  EXPECT_THROW(read_pdbqt("ROOT\n"
                          "ATOM      1  C1  LIG A   1       0.000   0.000"
                          "   0.000  1.00  0.00     0.000 C\n"
                          "ENDROOT\nBRANCH 1 2\n"),
               ParseError);
  EXPECT_THROW(read_pdbqt("ENDBRANCH 1 2\n"), ParseError);
}

TEST(PdbqtIo, RejectsUnknownType) {
  EXPECT_THROW(
      read_pdbqt("ATOM      1  C1  LIG A   1       0.000   0.000   0.000"
                 "  1.00  0.00     0.000 Q9\n"),
      ParseError);
}

TEST(PdbqtIo, MultiModelRoundTrip) {
  const PreparedLigand prep = prepare_ligand(sample_ligand());
  // Fake a two-mode docking result from the reference coordinates.
  dock::DockingResult result;
  for (int m = 0; m < 2; ++m) {
    dock::Conformation c;
    c.coords = prep.molecule.coordinates();
    for (Vec3& p : c.coords) p += Vec3{m * 5.0, 0, 0};
    c.feb = -6.0 + m;
    result.conformations.push_back(std::move(c));
  }
  const std::string text = dock::write_poses_pdbqt(prep, result);
  EXPECT_NE(text.find("MODEL 1"), std::string::npos);
  EXPECT_NE(text.find("REMARK VINA RESULT:"), std::string::npos);
  const auto models = read_pdbqt_models(text, prep.molecule.name());
  ASSERT_EQ(models.size(), 2u);
  for (const PdbqtModel& model : models) {
    EXPECT_TRUE(model.is_ligand);
    EXPECT_EQ(model.molecule.atom_count(), prep.molecule.atom_count());
    EXPECT_EQ(model.torsions.torsion_count(), prep.torsions.torsion_count());
  }
  // The two models are 5 A apart on x.
  const double dx = models[1].molecule.center().x - models[0].molecule.center().x;
  EXPECT_NEAR(dx, 5.0, 0.02);
}

TEST(PdbqtIo, ModelsReaderAcceptsSingleDocument) {
  const PreparedLigand prep = prepare_ligand(sample_ligand());
  const auto models = read_pdbqt_models(prep.pdbqt);
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].molecule.atom_count(), prep.molecule.atom_count());
}

TEST(PdbqtIo, ModelsReaderRejectsUnterminated) {
  EXPECT_THROW(read_pdbqt_models("MODEL 1\n"), Error);
  EXPECT_THROW(read_pdbqt_models("ENDMDL\n"), Error);
}

TEST(PdbqtIo, RejectsEmpty) {
  EXPECT_THROW(read_pdbqt("REMARK nothing\n"), ParseError);
}

// ------------------------------------------------------- non-finite

/// `text` with the first occurrence of `field` replaced by `bad`, padded
/// on the left to the field's width so fixed columns stay in place.
std::string poisoned(std::string text, const std::string& field,
                     const std::string& bad) {
  const std::size_t at = text.find(field);
  EXPECT_NE(at, std::string::npos) << field;
  if (at == std::string::npos) return text;
  std::string padded = bad;
  if (padded.size() < field.size()) {
    padded.insert(0, field.size() - padded.size(), ' ');
  }
  return text.replace(at, field.size(), padded);
}

TEST(NonFiniteFields, PdbCoordinateIsRejected) {
  const std::string record =
      "ATOM      1  CA  CYS A   1      11.000  22.000  33.000  1.00  0.00"
      "           C\nEND\n";
  EXPECT_THROW(read_pdb(poisoned(record, "11.000", "nan")), ParseError);
  EXPECT_THROW(read_pdb(poisoned(record, "33.000", "-inf")), ParseError);
}

TEST(NonFiniteFields, SdfMol2AndPdbqtCoordinatesAndChargesAreRejected) {
  const Molecule lig = sample_ligand();
  const Atom& a = lig.atom(0);
  const PreparedReceptor rec = prepare_receptor(sample_receptor());
  const Atom& r = rec.molecule.atom(0);
  for (const char* bad : {"nan", "inf", "-inf", "NaN"}) {
    EXPECT_THROW(read_sdf(poisoned(write_sdf(lig), strformat("%10.4f", a.pos.x),
                                   bad)),
                 ParseError)
        << bad;
    const std::string mol2 = write_mol2(lig);
    EXPECT_THROW(read_mol2(poisoned(mol2, strformat("%9.4f", a.pos.y), bad)),
                 ParseError)
        << bad;
    EXPECT_THROW(
        read_mol2(poisoned(mol2, strformat("%9.4f\n", a.partial_charge),
                           std::string(bad) + "\n")),
        ParseError)
        << bad;
    EXPECT_THROW(read_pdbqt(poisoned(rec.pdbqt, strformat("%8.3f", r.pos.z),
                                     bad)),
                 ParseError)
        << bad;
    EXPECT_THROW(
        read_pdbqt(poisoned(
            rec.pdbqt,
            strformat("%6.3f %-2s", r.partial_charge,
                      std::string(ad_type_name(r.ad_type)).c_str()),
            strformat("%s %-2s", bad,
                      std::string(ad_type_name(r.ad_type)).c_str()))),
        ParseError)
        << bad;
  }
}

}  // namespace
}  // namespace scidock::mol
