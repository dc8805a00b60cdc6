// Tests for the PROV-Wf provenance repository.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "prov/prov.hpp"
#include "util/error.hpp"

namespace scidock::prov {
namespace {

TEST(Provenance, SchemaTablesExist) {
  ProvenanceStore store;
  for (const char* table : {"hmachine", "hworkflow", "hactivity",
                            "hactivation", "hfile", "hvalue"}) {
    // An unknown table throws; each schema table starts empty.
    const sql::ResultSet rs =
        store.query(std::string("SELECT count(*) FROM ") + table);
    EXPECT_EQ(rs.rows.at(0).at(0).as_int(), 0) << table;
  }
}

TEST(Provenance, WorkflowLifecycle) {
  ProvenanceStore store;
  const long long wkfid = store.begin_workflow("SciDock", "Docking",
                                               "/root/scidock/", 0.0);
  EXPECT_EQ(wkfid, 1);
  store.end_workflow(wkfid, 3600.0);
  const auto rs = store.query(
      "SELECT tag, endtime - starttime FROM hworkflow WHERE wkfid = 1");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_string(), "SciDock");
  EXPECT_DOUBLE_EQ(rs.rows[0][1].as_double(), 3600.0);
}

TEST(Provenance, ActivationDurationsQueryable) {
  ProvenanceStore store;
  const long long wkfid = store.begin_workflow("wf", "", "/x/", 0.0);
  const long long actid = store.register_activity(wkfid, "babel", "./cmd", "MAP");
  const long long t1 = store.begin_activation(actid, wkfid, 10.0, 1, "042_2HHN");
  store.end_activation(t1, 12.5, kStatusFinished, 0, 1);
  const long long t2 = store.begin_activation(actid, wkfid, 12.5, 1, "074_2HHN");
  store.end_activation(t2, 20.0, kStatusFailed, 1, 1);

  const auto rs = store.query(
      "SELECT extract('epoch' from (t.endtime - t.starttime)) "
      "FROM hactivation t ORDER BY t.endtime");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rs.rows[0][0].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(rs.rows[1][0].as_double(), 7.5);

  const auto failed = store.query(
      "SELECT count(*) FROM hactivation WHERE status = 'FAILED'");
  EXPECT_EQ(failed.rows[0][0].as_int(), 1);
}

TEST(Provenance, EndUnknownActivationThrows) {
  ProvenanceStore store;
  EXPECT_THROW(store.end_activation(99, 1.0, kStatusFinished, 0, 1),
               NotFoundError);
  EXPECT_THROW(store.end_workflow(99, 1.0), NotFoundError);
}

TEST(Provenance, FilesAndValuesRecorded) {
  ProvenanceStore store;
  const long long wkfid = store.begin_workflow("SciDock", "", "/x/", 0.0);
  const long long actid = store.register_activity(wkfid, "autodock4", "./cmd", "MAP");
  const long long taskid = store.begin_activation(actid, wkfid, 0.0, 1, "p");
  store.record_file(wkfid, actid, taskid, "GOL_4C5P.dlg", 65740,
                    "/root/exp_SciDock/autodock4/223/");
  store.record_value(taskid, "FEB", -7.2, "kcal/mol");
  store.record_value(taskid, "RMSD", 55.4, "A");

  const auto files = store.query(
      "SELECT f.fname, f.fsize FROM hfile f WHERE f.fname LIKE '%.dlg'");
  ASSERT_EQ(files.rows.size(), 1u);
  EXPECT_EQ(files.rows[0][1].as_int(), 65740);

  const auto values = store.query(
      "SELECT key, value_num FROM hvalue ORDER BY key");
  ASSERT_EQ(values.rows.size(), 2u);
  EXPECT_EQ(values.rows[0][0].as_string(), "FEB");
  EXPECT_DOUBLE_EQ(values.rows[0][1].as_double(), -7.2);
}

TEST(Provenance, MachinesRecorded) {
  ProvenanceStore store;
  store.record_machine(1, "m3.xlarge", 4, 1.0);
  store.record_machine(2, "m3.2xlarge", 8, 0.95);
  const auto rs = store.query(
      "SELECT sum(cores) FROM hmachine");
  EXPECT_EQ(rs.rows[0][0].as_int(), 12);
}

TEST(Provenance, ThreeWayJoinLikeQuery2) {
  ProvenanceStore store;
  const long long wkfid = store.begin_workflow("SciDock", "", "/x/", 0.0);
  const long long a1 = store.register_activity(wkfid, "autodock4", "./c", "MAP");
  const long long a2 = store.register_activity(wkfid, "babel", "./c", "MAP");
  const long long t1 = store.begin_activation(a1, wkfid, 0.0, 1, "p");
  const long long t2 = store.begin_activation(a2, wkfid, 0.0, 1, "p");
  store.record_file(wkfid, a1, t1, "x.dlg", 100, "/d/");
  store.record_file(wkfid, a2, t2, "y.mol2", 50, "/d/");

  const auto rs = store.query(
      "SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir "
      "FROM hworkflow w, hactivity a, hfile f "
      "WHERE w.wkfid = a.wkfid AND a.actid = f.actid "
      "AND f.fname LIKE '%.dlg'");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].as_string(), "autodock4");
  EXPECT_EQ(rs.rows[0][2].as_string(), "x.dlg");
}

TEST(Provenance, RuntimeQueryDuringExecution) {
  // The paper's steering feature: querying while activations are open
  // (endtime NULL) must work and expose running activations.
  ProvenanceStore store;
  const long long wkfid = store.begin_workflow("wf", "", "/x/", 0.0);
  const long long actid = store.register_activity(wkfid, "vina", "./c", "MAP");
  store.begin_activation(actid, wkfid, 5.0, 1, "p1");
  const auto rs = store.query(
      "SELECT count(*) FROM hactivation WHERE endtime IS NULL");
  EXPECT_EQ(rs.rows[0][0].as_int(), 1);
  const auto running = store.query(
      "SELECT count(*) FROM hactivation WHERE status = 'RUNNING'");
  EXPECT_EQ(running.rows[0][0].as_int(), 1);
}

TEST(Provenance, ProvNExportCoversTheGraph) {
  ProvenanceStore store;
  store.record_machine(1, "m3.xlarge", 4, 1.0);
  const long long wkfid = store.begin_workflow("SciDock", "", "/x/", 0.0);
  const long long actid = store.register_activity(wkfid, "autodock4", "./c", "MAP");
  const long long taskid = store.begin_activation(actid, wkfid, 0.0, 1, "p");
  store.end_activation(taskid, 5.0, kStatusFinished, 0, 1);
  store.record_file(wkfid, actid, taskid, "x.dlg", 100, "/d/");

  const std::string prov_n = store.export_prov_n();
  EXPECT_NE(prov_n.find("document"), std::string::npos);
  EXPECT_NE(prov_n.find("endDocument"), std::string::npos);
  EXPECT_NE(prov_n.find("activity(scidock:workflow/1"), std::string::npos);
  EXPECT_NE(prov_n.find("agent(scidock:vm/1"), std::string::npos);
  EXPECT_NE(prov_n.find("activity(scidock:activation/1"), std::string::npos);
  EXPECT_NE(prov_n.find("wasAssociatedWith(scidock:activation/1, scidock:vm/1"),
            std::string::npos);
  EXPECT_NE(prov_n.find("entity(scidock:file/1, [prov:label=\"/d/x.dlg\"])"),
            std::string::npos);
  EXPECT_NE(prov_n.find("wasGeneratedBy(scidock:file/1, scidock:activation/1"),
            std::string::npos);
  EXPECT_NE(prov_n.find("scidock:status=\"FINISHED\""), std::string::npos);
}

TEST(Provenance, ProvNExportOfEmptyStore) {
  ProvenanceStore store;
  const std::string prov_n = store.export_prov_n();
  EXPECT_NE(prov_n.find("document"), std::string::npos);
  EXPECT_EQ(prov_n.find("activity("), std::string::npos);
}

// Regression: the store used to expose `database()`, handing out an
// unsynchronised reference that callers could scan while recorder threads
// mutated the tables underneath (flagged by -Wthread-safety once the store
// was annotated). Every read now goes through query(), which holds the
// shard lock, so a steering-style scan of a one-shard store during
// concurrent recording observes only complete rows and never tears.
TEST(Provenance, WithDatabaseIsSafeDuringRecording) {
  ProvenanceStore store;
  const long long wkfid = store.begin_workflow("steer", "", "/x/", 0.0);
  const long long actid = store.register_activity(wkfid, "dock", "./d", "MAP");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 64;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, actid, wkfid, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const long long taskid = store.begin_activation(
            actid, wkfid, 1.0, 1, "lig-" + std::to_string(w * kPerWriter + i));
        store.end_activation(taskid, 2.0, kStatusFinished, 0, 1);
      }
    });
  }
  // Steering reader: every result must hold only fully-formed rows, and
  // a FINISHED row always carries its endtime.
  std::size_t last = 0;
  for (int probe = 0; probe < 200; ++probe) {
    const sql::ResultSet rs = store.query("SELECT * FROM hactivation");
    EXPECT_GE(rs.rows.size(), last);
    last = rs.rows.size();
    for (const sql::Row& row : rs.rows) {
      ASSERT_EQ(row.size(), rs.columns.size());
      EXPECT_FALSE(row[0].is_null());  // taskid
      if (row[5].to_string() == kStatusFinished) {
        EXPECT_FALSE(row[4].is_null());  // endtime
      }
    }
  }
  for (auto& t : writers) t.join();
  const auto rs = store.query("SELECT count(*) FROM hactivation");
  EXPECT_EQ(rs.rows[0][0].as_int(), kWriters * kPerWriter);
}

TEST(Provenance, ShardedQueryIsSafeDuringRecording) {
  // The sharded counterpart of the test above, through store.query: a
  // steering query scans all four shards while four writers record.
  ProvenanceStoreOptions options;
  options.shard_count = 4;
  ProvenanceStore store(options);
  const long long wkfid = store.begin_workflow("steer", "", "/x/", 0.0);
  const long long actid = store.register_activity(wkfid, "dock", "./d", "MAP");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 64;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, actid, wkfid, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string id = std::to_string(w * kPerWriter + i);
        const long long taskid =
            store.begin_activation(actid, wkfid, 1.0, 1, "lig-" + id);
        store.record_file(wkfid, actid, taskid, id + ".dlg", 10, "/d/");
        store.end_activation(taskid, 2.0, kStatusFinished, 0, 1);
      }
    });
  }
  long long last_activations = 0;
  long long last_files = 0;
  for (int probe = 0; probe < 100; ++probe) {
    const auto act = store.query("SELECT count(*) FROM hactivation");
    const auto files = store.query(
        "SELECT count(*) FROM hfile f, hactivation t WHERE f.taskid = t.taskid");
    // Each writer has at most one activation open at any time.
    const auto running = store.query(
        "SELECT count(*) FROM hactivation WHERE status = 'RUNNING'");
    EXPECT_GE(act.rows[0][0].as_int(), last_activations);
    EXPECT_GE(files.rows[0][0].as_int(), last_files);
    EXPECT_LE(running.rows[0][0].as_int(), kWriters);
    last_activations = act.rows[0][0].as_int();
    last_files = files.rows[0][0].as_int();
  }
  for (auto& t : writers) t.join();
  const auto rs = store.query(
      "SELECT t.status, count(*) FROM hfile f, hactivation t "
      "WHERE f.taskid = t.taskid GROUP BY t.status");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].as_string(), kStatusFinished);
  EXPECT_EQ(rs.rows[0][1].as_int(), kWriters * kPerWriter);
}

TEST(Provenance, ShardedQueryEvaluatesColumnsOutsideGroupBy) {
  // t.workload is neither grouped nor aggregated (lint rule SQL006); the
  // engine takes it from each group's first row, at any shard count.
  ProvenanceStoreOptions options;
  options.shard_count = 4;
  ProvenanceStore store(options);
  const long long wkfid = store.begin_workflow("wf", "", "/x/", 0.0);
  const long long actid = store.register_activity(wkfid, "vina", "./c", "MAP");
  for (int i = 0; i < 16; ++i) {
    const long long taskid = store.begin_activation(
        actid, wkfid, 0.0, 1, "lig-" + std::to_string(i));
    if (i % 2 == 0) store.end_activation(taskid, 1.0, kStatusFinished, 0, 1);
  }
  const auto rs = store.query(
      "SELECT t.status, t.workload FROM hactivation t GROUP BY t.status");
  ASSERT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.rows[0][0].as_string(), kStatusFinished);
  EXPECT_EQ(rs.rows[1][0].as_string(), kStatusRunning);
  for (const sql::Row& row : rs.rows) {
    EXPECT_EQ(row[1].as_string().rfind("lig-", 0), 0u);
  }
  // Writes go through the recording API once the store has shards.
  EXPECT_THROW(store.query("DELETE FROM hactivation"), InvalidStateError);
  EXPECT_EQ(store.query("SELECT count(*) FROM hactivation").rows[0][0].as_int(), 16);
}

TEST(Provenance, IdsAreMonotonic) {
  ProvenanceStore store;
  const long long w1 = store.begin_workflow("a", "", "/x/", 0.0);
  const long long w2 = store.begin_workflow("b", "", "/x/", 0.0);
  EXPECT_LT(w1, w2);
  const long long a1 = store.register_activity(w1, "t", "./c", "MAP");
  const long long a2 = store.register_activity(w2, "t", "./c", "MAP");
  EXPECT_LT(a1, a2);
}

}  // namespace
}  // namespace scidock::prov
