// Crash-recovery matrix for the sharded, WAL-backed provenance store
// (ctest label: prov-recovery). Every case runs a deterministic synthetic
// campaign into a durable store with a chaos::KillSwitch armed on the
// VFS — tearing an append mid-frame, failing a group-commit append, or
// failing the rename that seals a rotated segment — then reopens the
// directory with a fresh store and proves:
//   - replay accepted a consistent prefix (InvariantChecker::check_recovery:
//     unique ids, resolvable references, legal statuses, zero orphans);
//   - the sync analyzers saw no error-severity finding across crash +
//     recovery;
//   - abort_open_activations closes every RUNNING row the crash left;
//   - the store accepts new work after recovery, and a further reopen
//     replays the recovered + resumed history byte-identically.
// A negative control corrupts a sealed segment's tail directly and
// asserts replay truncates exactly at the last valid record, and that the
// on-disk repair makes the next reopen a clean no-op.

#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "chaos/invariants.hpp"
#include "prov/prov.hpp"
#include "prov/wal.hpp"
#include "sql/table.hpp"
#include "util/error.hpp"
#include "vfs/vfs.hpp"

namespace scidock::prov {
namespace {

constexpr int kCampaignActivations = 150;

/// Deterministic mixed workload: two activities, two machines, retried
/// attempts, per-task files and values. Small enough to run ~30 times,
/// large enough to span several 4 KiB segments per shard.
void run_campaign(ProvenanceStore& store, int activations) {
  store.record_machine(1, "std-large", 8, 1.0);
  store.record_machine(2, "std-xlarge", 16, 1.25);
  const long long wkf = store.begin_workflow(
      "recovery-matrix", "synthetic crash-recovery campaign", "/exp/recovery",
      0.0);
  const long long dock =
      store.register_activity(wkf, "dock", "vina --receptor r --ligand l",
                              "MAP");
  const long long filter =
      store.register_activity(wkf, "filter", "best-energy", "FILTER");
  double t = 1.0;
  for (int i = 0; i < activations; ++i) {
    const long long act = (i % 4 == 3) ? filter : dock;
    const long long vm = 1 + (i % 2);
    const std::string id = std::to_string(i);
    if (i % 7 == 6) {  // a failed first attempt, then the re-execution
      const long long failed =
          store.begin_activation(act, wkf, t, vm, "pair-" + id);
      store.end_activation(failed, t + 0.05, kStatusFailed, 1, 1);
    }
    const long long task =
        store.begin_activation(act, wkf, t, vm, "pair-" + id);
    store.record_file(wkf, act, task, "out-" + id + ".dlg", 1024 + i,
                      "/exp/out");
    if (i % 3 == 0) {
      store.record_value(task, "energy", -8.0 + 0.01 * i, "kcal/mol");
    }
    store.end_activation(task, t + 0.5, kStatusFinished, 0,
                         i % 7 == 6 ? 2 : 1);
    t += 0.25;
  }
  store.end_workflow(wkf, t);
}

ProvenanceStoreOptions durable_options(vfs::SharedFileSystem& fs,
                                       std::size_t shards, bool group_commit) {
  ProvenanceStoreOptions options;
  options.shard_count = shards;
  options.vfs = &fs;
  options.wal_dir = "/prov";
  options.group_commit = group_commit;
  options.group_commit_interval_ms = 1;
  options.group_commit_max_bytes = 2048;  // frequent commits under chaos
  options.segment_max_bytes = 4096;       // several rotations per shard
  return options;
}

struct KillCase {
  chaos::KillPhase phase = chaos::KillPhase::Append;
  int ordinal = 0;
  std::size_t keep_bytes = 0;
  std::size_t shards = 2;
  bool group_commit = true;
};

std::string case_name(const KillCase& c) {
  const char* phase = c.phase == chaos::KillPhase::Append ? "append"
                      : c.phase == chaos::KillPhase::GroupCommit
                          ? "group-commit"
                          : "rotate";
  return std::string(phase) + " ordinal=" + std::to_string(c.ordinal) +
         " keep=" + std::to_string(c.keep_bytes) +
         " shards=" + std::to_string(c.shards) +
         (c.group_commit ? " gc=on" : " gc=off");
}

/// The ≥30-point seed matrix: every KillPhase, several ordinals and tear
/// offsets, 2 and 4 shards, group-commit and synchronous WAL modes.
std::vector<KillCase> kill_matrix() {
  std::vector<KillCase> cases;
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    for (bool gc : {true, false}) {
      for (int ordinal : {0, 2, 5}) {
        for (std::size_t keep : {std::size_t{0}, std::size_t{17}}) {
          cases.push_back({chaos::KillPhase::Append, ordinal, keep, shards,
                           gc});
        }
      }
    }
  }
  for (bool gc : {true, false}) {
    for (int ordinal : {0, 3}) {
      cases.push_back({chaos::KillPhase::GroupCommit, ordinal, 0, 2, gc});
    }
  }
  for (std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    for (int ordinal : {0, 1}) {
      cases.push_back({chaos::KillPhase::Rotate, ordinal, 0, shards, true});
    }
  }
  return cases;
}

void run_kill_case(const KillCase& c) {
  vfs::SharedFileSystem fs;
  chaos::KillSwitch kill({c.phase, c.ordinal, c.keep_bytes});
  fs.set_torn_write_hook(kill.torn_write_hook());
  fs.set_fault_hook(kill.fault_hook());
  const ProvenanceStoreOptions options =
      durable_options(fs, c.shards, c.group_commit);

  // Phase 1: campaign until the kill point fires (or cleanly if the
  // ordinal is never reached — then recovery must reproduce the store
  // exactly).
  bool crashed = false;
  std::string clean_digest;
  {
    ProvenanceStore store(options);
    try {
      run_campaign(store, kCampaignActivations);
      store.flush();
      clean_digest = store.content_digest();
    } catch (const std::exception&) {
      // The injected crash surfaces as TornWriteError, ChaosInjectedError
      // or (once the store is poisoned) InvalidStateError.
    }
    crashed = store.crashed();
    if (crashed) {
      EXPECT_THROW(store.flush(), InvalidStateError);
      EXPECT_THROW(store.record_machine(99, "dead", 1, 1.0),
                   InvalidStateError);
    }
  }
  // A clean run can only happen when the kill point was never reached.
  EXPECT_TRUE(crashed || !kill.fired() || !clean_digest.empty());

  // Phase 2: the "machine" comes back — hooks gone, same directory.
  fs.set_torn_write_hook(nullptr);
  fs.set_fault_hook(nullptr);

  std::string resumed_digest;
  {
    ProvenanceStore recovered(options);
    chaos::InvariantChecker checker;
    EXPECT_TRUE(checker.check_recovery(recovered)) << checker.to_string();
    EXPECT_TRUE(checker.check_sync()) << checker.to_string();
    if (!crashed && !clean_digest.empty()) {
      EXPECT_EQ(recovered.content_digest(), clean_digest)
          << "clean shutdown must replay byte-identically";
      EXPECT_EQ(recovered.last_recovery().truncated_bytes, 0u);
    }
    EXPECT_EQ(recovered.last_recovery().orphan_rows, 0u)
        << "commit ordering (dimensions before facts) must hold";

    // Close out whatever the crash interrupted, then resume recording.
    const std::size_t aborted = recovered.abort_open_activations(1000.0);
    if (!crashed) {
      EXPECT_EQ(aborted, 0u);
    }
    recovered.with_database([](sql::Database& db) {
      for (const sql::Row& row : db.table("hactivation").rows()) {
        EXPECT_NE(row[5].as_string(), "RUNNING");
        EXPECT_FALSE(row[4].is_null());  // endtime set on every row
      }
    });

    const long long wkf =
        recovered.begin_workflow("resumed", "post-recovery", "/exp", 2000.0);
    const long long act =
        recovered.register_activity(wkf, "redock", "vina", "MAP");
    for (int i = 0; i < 8; ++i) {
      const long long task = recovered.begin_activation(
          act, wkf, 2000.0 + i, 1, "resume-" + std::to_string(i));
      recovered.end_activation(task, 2000.5 + i, kStatusFinished, 0, 1);
    }
    recovered.end_workflow(wkf, 2010.0);
    recovered.flush();
    resumed_digest = recovered.content_digest();
  }

  // Phase 3: recovery is repeatable — a third open replays the recovered
  // history plus the resumed work byte-identically.
  ProvenanceStore reopened(options);
  chaos::InvariantChecker checker;
  EXPECT_TRUE(checker.check_recovery(reopened)) << checker.to_string();
  EXPECT_EQ(reopened.content_digest(), resumed_digest);
  EXPECT_EQ(reopened.last_recovery().truncated_bytes, 0u)
      << "the first recovery's repair must leave no torn tail behind";
}

TEST(ProvRecovery, KillPointMatrix) {
  const std::vector<KillCase> cases = kill_matrix();
  ASSERT_GE(cases.size(), 30u);
  for (const KillCase& c : cases) {
    SCOPED_TRACE(case_name(c));
    run_kill_case(c);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- negative controls: direct on-disk corruption ----

/// Highest-index sealed segment of shard 0 and its decoded frame count.
struct Victim {
  std::string path;
  std::string content;
  std::size_t frames = 0;
};

Victim find_victim(vfs::SharedFileSystem& fs) {
  Victim v;
  for (const vfs::FileInfo& f : fs.list("/prov/shard-0/")) {
    if (f.path.ends_with(".wal") && f.path > v.path) v.path = f.path;
  }
  if (v.path.empty()) return v;
  v.content = fs.read(v.path);
  std::size_t offset = 0;
  wal::WalRecord record;
  while (wal::decode_frame(v.content, offset, record)) {
    ++v.frames;
    record = wal::WalRecord{};
  }
  EXPECT_EQ(offset, v.content.size()) << "victim segment must start intact";
  return v;
}

/// Build a clean multi-segment log, reopen once (baseline), and hand the
/// filesystem to the corruption test.
std::size_t build_clean_log(const ProvenanceStoreOptions& options,
                            std::string* digest) {
  {
    ProvenanceStore store(options);
    run_campaign(store, 120);
  }
  ProvenanceStore base(options);
  EXPECT_EQ(base.last_recovery().truncated_bytes, 0u);
  *digest = base.content_digest();
  return base.last_recovery().records;
}

TEST(ProvRecovery, CorruptedTailTruncatesAtLastValidRecord) {
  vfs::SharedFileSystem fs;
  const ProvenanceStoreOptions options = durable_options(fs, 2, false);
  std::string base_digest;
  const std::size_t base_records = build_clean_log(options, &base_digest);

  const Victim victim = find_victim(fs);
  ASSERT_FALSE(victim.path.empty());
  ASSERT_GT(victim.frames, 1u);
  // Chop one byte off the tail: exactly the final record must be lost —
  // replay stops at the last valid frame boundary, not before.
  fs.write(victim.path, victim.content.substr(0, victim.content.size() - 1),
           0.0, "tamper");

  std::string damaged_digest;
  {
    ProvenanceStore recovered(options);
    EXPECT_EQ(recovered.last_recovery().records, base_records - 1);
    EXPECT_GT(recovered.last_recovery().truncated_bytes, 0u);
    chaos::InvariantChecker checker;
    EXPECT_TRUE(checker.check_recovery(recovered)) << checker.to_string();
    EXPECT_NE(recovered.content_digest(), base_digest);
    damaged_digest = recovered.content_digest();
  }
  // The repair truncated the segment on disk: the next open replays the
  // repaired log with nothing left to discard.
  ProvenanceStore again(options);
  EXPECT_EQ(again.last_recovery().records, base_records - 1);
  EXPECT_EQ(again.last_recovery().truncated_bytes, 0u);
  EXPECT_EQ(again.content_digest(), damaged_digest);
}

TEST(ProvRecovery, CorruptedChecksumDropsFrameAndSuffix) {
  vfs::SharedFileSystem fs;
  const ProvenanceStoreOptions options = durable_options(fs, 2, false);
  std::string base_digest;
  const std::size_t base_records = build_clean_log(options, &base_digest);

  const Victim victim = find_victim(fs);
  ASSERT_FALSE(victim.path.empty());
  ASSERT_GT(victim.frames, 1u);
  // Flip a payload byte of the victim's first frame: its checksum fails,
  // so replay keeps earlier segments but discards this one whole.
  std::string tampered = victim.content;
  tampered[10] = static_cast<char>(tampered[10] ^ 0x5a);
  fs.write(victim.path, tampered, 0.0, "tamper");

  ProvenanceStore recovered(options);
  EXPECT_EQ(recovered.last_recovery().records, base_records - victim.frames);
  EXPECT_GT(recovered.last_recovery().truncated_bytes, 0u);
  chaos::InvariantChecker checker;
  EXPECT_TRUE(checker.check_recovery(recovered)) << checker.to_string();
}

}  // namespace
}  // namespace scidock::prov
