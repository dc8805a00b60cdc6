// Property-based sweeps (parameterised gtest): invariants that must hold
// across the whole dataset and across random seeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "data/generator.hpp"
#include "data/table2.hpp"
#include "dock/conformation.hpp"
#include "dock/scoring.hpp"
#include "mol/charges.hpp"
#include "mol/io_pdb.hpp"
#include "mol/io_pdbqt.hpp"
#include "mol/io_sdf.hpp"
#include "mol/prepare.hpp"
#include "prov/prov.hpp"
#include "sql/engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "wf/sim_executor.hpp"

namespace scidock {
namespace {

// --------------------------------------------------- every ligand code

class LigandProperty : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllTable2Ligands, LigandProperty,
                         ::testing::ValuesIn(data::table2_ligands()),
                         [](const auto& param_info) { return "lig_" + param_info.param; });

TEST_P(LigandProperty, GeneratesPreparesAndRoundTrips) {
  mol::Molecule lig = data::make_ligand(GetParam());
  ASSERT_GT(lig.atom_count(), 6);

  // SDF round trip preserves the molecule.
  const mol::Molecule back = mol::read_sdf(mol::write_sdf(lig), GetParam());
  ASSERT_EQ(back.atom_count(), lig.atom_count());
  ASSERT_EQ(back.bond_count(), lig.bond_count());

  // Preparation succeeds: charges neutral, all atoms parameterised.
  const mol::PreparedLigand prep = mol::prepare_ligand(std::move(lig));
  EXPECT_NEAR(mol::total_charge(prep.molecule), 0.0, 1e-6);
  EXPECT_TRUE(prep.molecule.fully_parameterised());

  // PDBQT round trip preserves the torsion count.
  const mol::PdbqtModel model = mol::read_pdbqt(prep.pdbqt);
  EXPECT_EQ(model.torsions.torsion_count(), prep.torsions.torsion_count());
}

TEST_P(LigandProperty, TorsionApplyPreservesBondLengths) {
  const mol::PreparedLigand prep =
      mol::prepare_ligand(data::make_ligand(GetParam()));
  Rng rng(fnv1a64(GetParam()));
  const auto ref = prep.molecule.coordinates();
  for (int trial = 0; trial < 5; ++trial) {
    dock::DockPose pose = dock::DockPose::random(
        dock::GridBox::around({0, 0, 0}, 10.0, 1.0), {0, 0, 0},
        prep.torsions.torsion_count(), rng);
    const auto out = prep.torsions.apply(ref, pose.rigid, pose.torsions);
    for (const mol::Bond& b : prep.molecule.bonds()) {
      const double before =
          mol::distance(ref[static_cast<std::size_t>(b.a)],
                        ref[static_cast<std::size_t>(b.b)]);
      const double after =
          mol::distance(out[static_cast<std::size_t>(b.a)],
                        out[static_cast<std::size_t>(b.b)]);
      EXPECT_NEAR(before, after, 1e-6);
    }
  }
}

// ------------------------------------------------- receptor code sample

class ReceptorProperty : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    SampledTable2Receptors, ReceptorProperty,
    ::testing::Values("1AEC", "1HUC", "1S4V", "2HHN", "2ACT", "3BC3", "4AXL",
                      "9PAP", "1CS8", "2PAD", "3IOQ", "7PCK"),
    [](const auto& param_info) { return "rec_" + param_info.param; });

TEST_P(ReceptorProperty, GeneratesParsesAndPrepares) {
  data::GeneratorOptions opts;
  opts.min_residues = 12;
  opts.max_residues = 36;
  const mol::Molecule rec = data::make_receptor(GetParam(), opts);
  ASSERT_GT(rec.atom_count(), 40);

  // PDB round trip.
  const mol::Molecule back = mol::read_pdb(mol::write_pdb(rec), GetParam());
  ASSERT_EQ(back.atom_count(), rec.atom_count());

  // Preparation: Hg receptors throw, the rest produce a rigid PDBQT.
  if (data::receptor_has_hg(GetParam(), opts)) {
    EXPECT_THROW(mol::prepare_receptor(back), ActivityError);
  } else {
    const mol::PreparedReceptor prep = mol::prepare_receptor(back);
    EXPECT_TRUE(prep.molecule.fully_parameterised());
    EXPECT_FALSE(prep.pdbqt.empty());
    // Waters never survive preparation.
    for (const mol::Atom& a : prep.molecule.atoms()) {
      EXPECT_NE(a.residue_name, "HOH");
    }
  }
}

// ------------------------------------------------ scoring function sweep

struct PairParam {
  mol::AdType a;
  mol::AdType b;
};

class ScoringProperty : public ::testing::TestWithParam<PairParam> {};

INSTANTIATE_TEST_SUITE_P(
    TypePairs, ScoringProperty,
    ::testing::Values(PairParam{mol::AdType::C, mol::AdType::C},
                      PairParam{mol::AdType::C, mol::AdType::OA},
                      PairParam{mol::AdType::A, mol::AdType::N},
                      PairParam{mol::AdType::OA, mol::AdType::HD},
                      PairParam{mol::AdType::SA, mol::AdType::HD},
                      PairParam{mol::AdType::Cl, mol::AdType::C},
                      PairParam{mol::AdType::Zn, mol::AdType::OA},
                      PairParam{mol::AdType::Br, mol::AdType::A}),
    [](const auto& param_info) {
      return std::string(mol::ad_type_name(param_info.param.a)) + "_" +
             std::string(mol::ad_type_name(param_info.param.b));
    });

TEST_P(ScoringProperty, Ad4PairEnergyIsFiniteSymmetricAndDecays) {
  const auto [ta, tb] = GetParam();
  for (double r = 0.2; r < 12.0; r += 0.1) {
    const double e_ab = dock::ad4_pair_energy(ta, 0.1, tb, -0.2, r);
    const double e_ba = dock::ad4_pair_energy(tb, -0.2, ta, 0.1, r);
    EXPECT_TRUE(std::isfinite(e_ab)) << r;
    EXPECT_NEAR(e_ab, e_ba, 1e-9) << r;  // symmetry
  }
  // Interaction decays to ~nothing at long range.
  EXPECT_NEAR(dock::ad4_pair_energy(ta, 0.1, tb, -0.2, 50.0), 0.0, 0.05);
}

TEST_P(ScoringProperty, VinaPairEnergyIsFiniteSymmetricAndCutoff) {
  const auto [ta, tb] = GetParam();
  for (double r = 0.2; r < 9.0; r += 0.1) {
    const double e_ab = dock::vina_pair_energy(ta, tb, r);
    const double e_ba = dock::vina_pair_energy(tb, ta, r);
    EXPECT_TRUE(std::isfinite(e_ab)) << r;
    EXPECT_DOUBLE_EQ(e_ab, e_ba) << r;
  }
  EXPECT_DOUBLE_EQ(dock::vina_pair_energy(ta, tb, 8.0), 0.0);
}

// -------------------------------------------- simulated executor sweep

struct SimParam {
  int cores;
  std::uint64_t seed;
};

class SimExecutorProperty : public ::testing::TestWithParam<SimParam> {};

INSTANTIATE_TEST_SUITE_P(
    CoresAndSeeds, SimExecutorProperty,
    ::testing::Values(SimParam{2, 1}, SimParam{4, 1}, SimParam{8, 2},
                      SimParam{16, 3}, SimParam{32, 4}),
    [](const auto& param_info) {
      return "c" + std::to_string(param_info.param.cores) + "_s" +
             std::to_string(param_info.param.seed);
    });

TEST_P(SimExecutorProperty, ConservationAndBounds) {
  const auto [cores, seed] = GetParam();
  wf::Pipeline p;
  p.add_stage(wf::Stage{"a", wf::AlgebraicOp::Map, nullptr, nullptr, nullptr, nullptr});
  p.add_stage(wf::Stage{"b", wf::AlgebraicOp::Map, nullptr, nullptr, nullptr, nullptr});
  cloud::CostModel model;
  model.set_cost({"a", 20.0, 0.4, 1.0});
  model.set_cost({"b", 10.0, 0.4, 1.0});

  wf::Relation rel{{"id"}};
  for (int i = 0; i < 60; ++i) {
    wf::Tuple t;
    t.set("id", std::to_string(i));
    rel.add(std::move(t));
  }

  wf::SimExecutorOptions opts;
  opts.fleet = wf::m3_fleet_for_cores(cores);
  opts.failure.failure_probability = 0.1;
  opts.failure.hang_probability = 0.0;
  opts.seed = seed;
  const wf::SimReport report =
      wf::SimulatedExecutor(p, model, opts).run(rel);

  // Conservation: every tuple is either completed or lost.
  EXPECT_EQ(report.tuples_completed, 60);
  // Completed tuples each finish both stages exactly once.
  EXPECT_EQ(report.activations_finished, 2 * (60 - report.tuples_lost));
  // TET is bounded below by total successful work / cores (no free lunch).
  double total_work = 0.0;
  for (const auto& [tag, stats] : report.per_activity_seconds) {
    total_work += stats.sum();
  }
  EXPECT_GE(report.total_execution_time_s * cores, total_work * 0.99);
  // Per-activity stats cover exactly the finished activations.
  std::size_t counted = 0;
  for (const auto& [tag, stats] : report.per_activity_seconds) {
    counted += stats.count();
  }
  EXPECT_EQ(static_cast<long long>(counted), report.activations_finished);
}

// --------------------------------------------------------- SQL property

class SqlAggregateProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SqlAggregateProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST_P(SqlAggregateProperty, GroupedAggregatesMatchManualComputation) {
  Rng rng(GetParam());
  sql::Database db;
  sql::Engine engine(db);
  engine.execute("CREATE TABLE x (grp int, v float)");
  std::map<int, std::vector<double>> expected;
  for (int i = 0; i < 200; ++i) {
    const int grp = static_cast<int>(rng.below(5));
    const double v = rng.normal(10.0, 4.0);
    expected[grp].push_back(v);
    engine.execute(strformat("INSERT INTO x VALUES (%d, %.17g)", grp, v));
  }
  const sql::ResultSet rs = engine.execute(
      "SELECT grp, count(*), sum(v), min(v), max(v), avg(v) FROM x "
      "GROUP BY grp ORDER BY grp");
  ASSERT_EQ(rs.rows.size(), expected.size());
  std::size_t row = 0;
  for (const auto& [grp, values] : expected) {
    const sql::Row& r = rs.rows[row++];
    EXPECT_EQ(r[0].as_int(), grp);
    EXPECT_EQ(r[1].as_int(), static_cast<std::int64_t>(values.size()));
    double sum = 0.0;
    double lo = values[0], hi = values[0];
    for (double v : values) {
      sum += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_NEAR(r[2].as_double(), sum, 1e-6);
    EXPECT_NEAR(r[3].as_double(), lo, 1e-9);
    EXPECT_NEAR(r[4].as_double(), hi, 1e-9);
    EXPECT_NEAR(r[5].as_double(), sum / values.size(), 1e-9);
  }
}

TEST_P(SqlAggregateProperty, WherePartitionIsExhaustive) {
  Rng rng(GetParam() + 100);
  sql::Database db;
  sql::Engine engine(db);
  engine.execute("CREATE TABLE y (v float)");
  for (int i = 0; i < 100; ++i) {
    engine.execute(strformat("INSERT INTO y VALUES (%.17g)", rng.uniform(-1, 1)));
  }
  const auto lt = engine.execute("SELECT count(*) FROM y WHERE v < 0");
  const auto ge = engine.execute("SELECT count(*) FROM y WHERE v >= 0");
  EXPECT_EQ(lt.rows[0][0].as_int() + ge.rows[0][0].as_int(), 100);
}

// ---------------------------- sharded provenance query equivalence

/// Record one pseudo-random PROV-Wf workload. Driven purely by `seed`,
/// so recording the same seed into two stores yields identical logical
/// content regardless of their shard counts.
void record_random_prov(std::uint64_t seed, prov::ProvenanceStore& store) {
  Rng rng(seed);
  const int machines = 2 + static_cast<int>(rng.below(3));
  for (int m = 1; m <= machines; ++m) {
    store.record_machine(m, "vm-" + std::to_string(m), 4 * m,
                         1.0 + 0.25 * m);
  }
  const int workflows = 1 + static_cast<int>(rng.below(2));
  double t = 0.0;
  for (int w = 0; w < workflows; ++w) {
    const long long wkf = store.begin_workflow(
        "wf-" + std::to_string(w), "sharded-query property", "/exp", t);
    std::vector<long long> acts;
    const int nact = 2 + static_cast<int>(rng.below(3));
    for (int a = 0; a < nact; ++a) {
      acts.push_back(store.register_activity(wkf, "act-" + std::to_string(a),
                                             "cmd --stage " + std::to_string(a),
                                             a % 2 == 0 ? "MAP" : "FILTER"));
    }
    const int n = 80 + static_cast<int>(rng.below(60));
    for (int i = 0; i < n; ++i) {
      const long long act = acts[rng.below(acts.size())];
      const long long vm = 1 + static_cast<long long>(rng.below(machines));
      const std::string id = std::to_string(i);
      const long long task =
          store.begin_activation(act, wkf, t, vm, "pair-" + id);
      if (rng.chance(0.5)) {
        store.record_file(wkf, act, task,
                          "out-" + id + (rng.chance(0.5) ? ".dlg" : ".log"),
                          100 + static_cast<std::size_t>(i), "/out");
      }
      if (rng.chance(0.4)) {
        store.record_value(task, "energy", rng.uniform(-12.0, -2.0),
                           "kcal/mol");
      }
      if (rng.chance(0.05)) {  // leave RUNNING: NULL endtime in scans
        t += 0.125;
        continue;
      }
      const double u = rng.uniform();
      const std::string_view status = u < 0.7   ? prov::kStatusFinished
                                      : u < 0.9 ? prov::kStatusFailed
                                                : prov::kStatusAborted;
      store.end_activation(task, t + rng.uniform(0.1, 3.0), status,
                           status == prov::kStatusFinished ? 0 : 1,
                           1 + static_cast<int>(rng.below(3)));
      t += 0.125;
    }
    store.end_workflow(wkf, t);
  }
}

/// Shipped-query-shaped workload: scans, the paper's Query 1/2 joins,
/// grouped aggregates, and an ORDER BY ... LIMIT steering query (duration
/// keys are continuous draws, so ties have measure zero).
std::vector<std::string> sharded_equivalence_queries() {
  return {
      "SELECT taskid, actid, wkfid, status, attempts, vmid "
      "FROM hactivation",
      "SELECT status, count(*) FROM hactivation GROUP BY status "
      "ORDER BY status",
      "SELECT count(*) FROM hactivation WHERE attempts > 1",
      "SELECT a.tag, "
      "min(extract ('epoch' from (t.endtime-t.starttime))), "
      "max(extract ('epoch' from (t.endtime-t.starttime))), "
      "sum(extract ('epoch' from (t.endtime-t.starttime))), "
      "avg(extract ('epoch' from (t.endtime-t.starttime))) "
      "FROM hworkflow w, hactivity a, hactivation t "
      "WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = 1 "
      "GROUP BY a.tag",
      "SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir "
      "FROM hworkflow w, hactivity a, hfile f "
      "WHERE w.wkfid = a.wkfid AND a.actid = f.actid "
      "AND f.fname LIKE '%.dlg' ORDER BY f.fileid",
      "SELECT t.vmid, count(*), "
      "avg(extract('epoch' from (t.endtime - t.starttime))) "
      "FROM hactivation t WHERE t.status = 'FINISHED' "
      "GROUP BY t.vmid ORDER BY t.vmid",
      "SELECT a.tag, t.workload, "
      "extract('epoch' from (t.endtime - t.starttime)) dur "
      "FROM hactivity a, hactivation t "
      "WHERE a.actid = t.actid AND t.status = 'FINISHED' "
      "ORDER BY dur DESC LIMIT 12",
      "SELECT avg(value_num), min(value_num), max(value_num), count(*) "
      "FROM hvalue",
      // Fact tables joined on a column other than the partition key.
      "SELECT count(*) FROM hfile f, hactivation t WHERE f.actid = t.actid",
      // GROUP BY naming a qualified select column without its qualifier.
      "SELECT a.tag, count(*) FROM hactivity a, hactivation t "
      "WHERE a.actid = t.actid GROUP BY tag",
  };
}

/// Order-independent row-set canonicalisation. Doubles are printed
/// exactly: a sharded store scans a partitioned table shard by shard, but
/// sum and avg add in value order, so every shard count gives the single
/// shard's bits.
std::vector<std::string> canonical_rows(const sql::ResultSet& rs) {
  std::vector<std::string> out;
  out.reserve(rs.rows.size());
  for (const sql::Row& row : rs.rows) {
    std::string s;
    for (const sql::Value& v : row) {
      if (v.is_null()) {
        s += "|null";
      } else if (v.is_double()) {
        s += strformat("|d:%.17g", v.as_double());
      } else if (v.is_int()) {
        s += strformat("|i:%lld", static_cast<long long>(v.as_int()));
      } else {
        s += "|s:" + v.as_string();
      }
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ShardedProvQueryProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedProvQueryProperty,
                         ::testing::Values(7u, 8u, 9u));

TEST_P(ShardedProvQueryProperty, ShardedSelectsMatchSingleShard) {
  const std::uint64_t seed = GetParam();
  prov::ProvenanceStore single;  // the reference: one shard, one engine
  record_random_prov(seed, single);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    prov::ProvenanceStoreOptions options;
    options.shard_count = shards;  // volatile: a pure query test
    prov::ProvenanceStore sharded(options);
    record_random_prov(seed, sharded);
    for (const std::string& q : sharded_equivalence_queries()) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " sql=" + q);
      const sql::ResultSet expect = single.query(q);
      const sql::ResultSet got = sharded.query(q);
      EXPECT_EQ(expect.columns, got.columns);
      EXPECT_EQ(canonical_rows(expect), canonical_rows(got));
    }
  }
}

// ------------------------------------------ charge neutrality everywhere

class ChargeProperty : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Ligands, ChargeProperty,
                         ::testing::ValuesIn(data::table3_ligands()),
                         [](const auto& param_info) { return "chg_" + param_info.param; });

TEST_P(ChargeProperty, GasteigerConvergesAndIsNeutral) {
  mol::Molecule lig = data::make_ligand(GetParam());
  mol::GasteigerOptions opts;
  opts.iterations = 12;  // double the default: charges must stay stable
  mol::assign_gasteiger_charges(lig, opts);
  EXPECT_NEAR(mol::total_charge(lig), 0.0, 1e-9);
  for (const mol::Atom& a : lig.atoms()) {
    EXPECT_LT(std::abs(a.partial_charge), 1.0) << a.name;  // physical range
  }
}

}  // namespace
}  // namespace scidock
