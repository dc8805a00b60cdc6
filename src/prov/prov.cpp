#include "prov/prov.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "sql/sharded.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scidock::prov {

using sql::Value;
using wal::WalOp;
using wal::WalRecord;

namespace {

// hactivation column positions (fixed by init_schema; constants keep the
// 1M-record replay path off column_index lookups).
constexpr std::size_t kActTaskid = 0;
constexpr std::size_t kActActid = 1;
constexpr std::size_t kActWkfid = 2;
constexpr std::size_t kActEndtime = 4;
constexpr std::size_t kActStatus = 5;
constexpr std::size_t kActExitcode = 7;
constexpr std::size_t kActAttempts = 8;

constexpr const char* kDimTables[] = {"hworkflow", "hactivity", "hmachine"};
constexpr const char* kFactTables[] = {"hactivation", "hfile", "hvalue"};

std::string export_prov_n_impl(sql::Database& db) {
  sql::Engine engine(db);
  std::string out = "document\n  prefix scidock <urn:scidock:>\n\n";

  for (const sql::Row& row :
       engine.execute("SELECT wkfid, tag, starttime, endtime FROM hworkflow").rows) {
    out += strformat("  activity(scidock:workflow/%lld, [prov:label=\"%s\"])\n",
                     static_cast<long long>(row[0].as_int()),
                     row[1].as_string().c_str());
  }
  for (const sql::Row& row :
       engine.execute("SELECT vmid, type FROM hmachine").rows) {
    out += strformat("  agent(scidock:vm/%lld, [prov:type=\"%s\"])\n",
                     static_cast<long long>(row[0].as_int()),
                     row[1].as_string().c_str());
  }
  for (const sql::Row& row :
       engine
           .execute("SELECT t.taskid, a.tag, t.starttime, t.endtime, t.vmid, "
                    "t.status FROM hactivity a, hactivation t "
                    "WHERE a.actid = t.actid")
           .rows) {
    const long long taskid = row[0].as_int();
    out += strformat(
        "  activity(scidock:activation/%lld, [prov:label=\"%s\", "
        "scidock:status=\"%s\"])\n",
        taskid, row[1].as_string().c_str(), row[5].as_string().c_str());
    if (row[4].as_int() > 0) {
      out += strformat(
          "  wasAssociatedWith(scidock:activation/%lld, scidock:vm/%lld, -)\n",
          taskid, static_cast<long long>(row[4].as_int()));
    }
  }
  for (const sql::Row& row :
       engine.execute("SELECT fileid, fname, fdir, taskid FROM hfile").rows) {
    const long long fileid = row[0].as_int();
    out += strformat(
        "  entity(scidock:file/%lld, [prov:label=\"%s%s\"])\n", fileid,
        row[2].as_string().c_str(), row[1].as_string().c_str());
    out += strformat(
        "  wasGeneratedBy(scidock:file/%lld, scidock:activation/%lld, -)\n",
        fileid, static_cast<long long>(row[3].as_int()));
  }
  out += "endDocument\n";
  return out;
}

}  // namespace

std::string workflow_id_sql(std::string_view tag) {
  return strformat(
      "SELECT wkfid FROM hworkflow WHERE tag = '%s' "
      "ORDER BY wkfid DESC LIMIT 1",
      std::string(tag).c_str());
}

// The `-- reconciles:` comment annotations below declare which metrics
// series each query is the provenance ground truth for; the SQL lexer
// strips line comments, so execution is unaffected, while scidock-lint's
// SQL008 validates every named series against obs::known_metric_names().

std::string activation_count_sql(long long wkfid) {
  return strformat(
      "-- reconciles: scidock_executor_activations_started_total\n"
      "SELECT count(*) FROM hactivation WHERE wkfid = %lld",
      wkfid);
}

std::string activations_by_status_sql(long long wkfid) {
  return strformat(
      "-- reconciles: scidock_executor_activations_finished_total,\n"
      "-- reconciles: scidock_executor_activations_failed_total,\n"
      "-- reconciles: scidock_executor_activations_aborted_total\n"
      "SELECT status, count(*) FROM hactivation WHERE wkfid = %lld "
      "GROUP BY status ORDER BY status",
      wkfid);
}

std::string retried_activation_count_sql(long long wkfid) {
  return strformat(
      "-- reconciles: scidock_executor_activations_retried_total\n"
      "SELECT count(*) FROM hactivation "
      "WHERE wkfid = %lld AND attempts > 1",
      wkfid);
}

std::string finished_activation_count_sql(long long wkfid,
                                          std::string_view activity_tag) {
  return strformat(
      "-- reconciles: scidock_cache_gridmaps_hits_total,\n"
      "-- reconciles: scidock_cache_gridmaps_misses_total,\n"
      "-- reconciles: scidock_cache_gridmaps_inflight_waits_total\n"
      "SELECT count(*) FROM hactivity a, hactivation t "
      "WHERE t.actid = a.actid AND a.wkfid = %lld "
      "AND a.tag = '%s' AND t.status = '%s'",
      wkfid, std::string(activity_tag).c_str(),
      std::string(kStatusFinished).c_str());
}

void ProvenanceStore::init_schema(sql::Database& db) {
  db.create_table("hmachine", {"vmid", "type", "cores", "speed_factor"});
  db.create_table("hworkflow",
                  {"wkfid", "tag", "description", "expdir", "starttime", "endtime"});
  db.create_table("hactivity", {"actid", "wkfid", "tag", "activation", "op"});
  db.create_table("hactivation",
                  {"taskid", "actid", "wkfid", "starttime", "endtime",
                   "status", "vmid", "exitcode", "attempts", "workload"});
  db.create_table("hfile",
                  {"fileid", "wkfid", "actid", "taskid", "fname", "fsize", "fdir"});
  db.create_table("hvalue",
                  {"valueid", "taskid", "key", "value_num", "value_text"});
}

ProvenanceStore::ProvenanceStore() : ProvenanceStore(ProvenanceStoreOptions{}) {}

ProvenanceStore::ProvenanceStore(ProvenanceStoreOptions options)
    : options_(std::move(options)) {
  SCIDOCK_REQUIRE(options_.shard_count >= 1,
                  "ProvenanceStore needs at least one shard");
  shards_.reserve(options_.shard_count);
  for (std::size_t k = 0; k < options_.shard_count; ++k) {
    auto shard = std::make_unique<Shard>();
    init_schema(shard->db);
    shards_.push_back(std::move(shard));
  }
  recovery_.shards = shards_.size();
  if (durable()) {
    recover();
    if (options_.group_commit) start_flusher();
  }
}

ProvenanceStore::~ProvenanceStore() {
  if (flusher_.joinable()) {
    {
      MutexLock lock(flusher_mutex_);
      stop_ = true;
    }
    flusher_cv_.notify_one();
    flusher_.join();
    sync::on_join(flusher_edge_, sync::Site::current());
  }
  for (const auto& shard : shards_) SCIDOCK_RACER_UNTRACK(shard->writer);
}

ProvenanceStore::Shard& ProvenanceStore::fact_shard(long long taskid) {
  if (shards_.size() == 1) return *shards_[0];
  char key[sizeof(taskid)];
  std::memcpy(key, &taskid, sizeof(taskid));
  const std::uint64_t h = fnv1a64(std::string_view(key, sizeof(key)));
  return *shards_[h % shards_.size()];
}

std::string ProvenanceStore::shard_dir(std::size_t k) const {
  return strformat("%s/shard-%zu", options_.wal_dir.c_str(), k);
}

sql::Row* ProvenanceStore::find_activation(Shard& shard, long long taskid) {
  std::vector<sql::Row>& rows = shard.db.table("hactivation").mutable_rows();
  const auto it = shard.activation_rows.find(taskid);
  if (it != shard.activation_rows.end() && it->second < rows.size() &&
      rows[it->second][kActTaskid].as_int() == taskid) {
    return &rows[it->second];
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i][kActTaskid].as_int() == taskid) {
      shard.activation_rows[taskid] = i;
      return &rows[i];
    }
  }
  shard.activation_rows.erase(taskid);
  return nullptr;
}

void ProvenanceStore::apply_record(Shard& shard, const WalRecord& r) {
  switch (r.op) {
    case WalOp::BeginWorkflow:
      shard.db.table("hworkflow")
          .insert({Value(r.i0), Value(r.s0), Value(r.s1), Value(r.s2),
                   Value(r.d0), Value()});
      break;
    case WalOp::EndWorkflow: {
      sql::Table& t = shard.db.table("hworkflow");
      const auto id_col = static_cast<std::size_t>(t.column_index("wkfid"));
      const auto end_col = static_cast<std::size_t>(t.column_index("endtime"));
      for (sql::Row& row : t.mutable_rows()) {
        if (row[id_col].as_int() == r.i0) {
          row[end_col] = Value(r.d0);
          break;
        }
      }
      break;
    }
    case WalOp::RegisterActivity:
      shard.db.table("hactivity")
          .insert({Value(r.i0), Value(r.i1), Value(r.s0), Value(r.s1),
                   Value(r.s2)});
      break;
    case WalOp::BeginActivation: {
      sql::Table& t = shard.db.table("hactivation");
      shard.activation_rows[r.i0] = t.row_count();
      t.insert({Value(r.i0), Value(r.i1), Value(r.i2), Value(r.d0), Value(),
                Value(std::string(kStatusRunning)), Value(r.i3), Value(0),
                Value(1), Value(r.s0)});
      break;
    }
    case WalOp::EndActivation:
      // Missing row = replay of an end whose begin was pruned; tolerated
      // (the recording path validates presence before logging).
      if (sql::Row* row = find_activation(shard, r.i0)) {
        (*row)[kActEndtime] = Value(r.d0);
        (*row)[kActStatus] = Value(r.s0);
        (*row)[kActExitcode] = Value(r.i1);
        (*row)[kActAttempts] = Value(r.i2);
      }
      break;
    case WalOp::RecordMachine:
      shard.db.table("hmachine")
          .insert({Value(r.i0), Value(r.s0), Value(r.i1), Value(r.d0)});
      break;
    case WalOp::RecordFile:
      shard.db.table("hfile")
          .insert({Value(r.i0), Value(r.i1), Value(r.i2), Value(r.i3),
                   Value(r.s0), Value(r.i4), Value(r.s1)});
      break;
    case WalOp::RecordValue:
      shard.db.table("hvalue")
          .insert({Value(r.i0), Value(r.i1), Value(r.s0), Value(r.d0),
                   Value(r.s1)});
      break;
  }
}

void ProvenanceStore::log_record(Shard& shard, const WalRecord& r) {
  if (!durable()) return;
  const std::string frame = wal::encode_record(r);
  records_logged_.fetch_add(1, std::memory_order_relaxed);
  if (options_.group_commit) {
    shard.pending += frame;
    ++shard.pending_records;
    pending_bytes_total_.fetch_add(static_cast<long long>(frame.size()),
                                   std::memory_order_relaxed);
    return;
  }
  // Synchronous mode: the record is durable before the call returns.
  SCIDOCK_RACER_WRITE(shard.writer);
  const std::size_t rotations_before = shard.writer->rotations();
  try {
    shard.writer->append(frame, 0.0);
    shard.writer->sync();
  } catch (...) {
    crashed_.store(true, std::memory_order_release);
    throw;
  }
  const auto rotated = static_cast<long long>(shard.writer->rotations() -
                                              rotations_before);
  records_durable_.fetch_add(1, std::memory_order_relaxed);
  bytes_durable_.fetch_add(static_cast<long long>(frame.size()),
                           std::memory_order_relaxed);
  if (rotated > 0) {
    rotations_total_.fetch_add(rotated, std::memory_order_relaxed);
    bump(rates_.wal_rotations, rotated);
  }
  bump(rates_.wal_records);
  bump(rates_.wal_bytes, static_cast<long long>(frame.size()));
}

void ProvenanceStore::after_record() {
  if (!durable() || !options_.group_commit) return;
  const long long pending = pending_bytes_total_.load(std::memory_order_relaxed);
  if (obs::Gauge* g = rates_.wal_pending_bytes.load(std::memory_order_relaxed)) {
    g->set(static_cast<double>(pending));
  }
  if (pending >= static_cast<long long>(options_.group_commit_max_bytes)) {
    flusher_cv_.notify_one();
  }
}

void ProvenanceStore::ensure_writable() const {
  if (crashed_.load(std::memory_order_acquire)) {
    throw InvalidStateError(
        "provenance store crashed mid-commit (WAL write failed); reopen the "
        "log directory with a fresh store to recover");
  }
}

void ProvenanceStore::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    for (std::atomic<obs::Counter*>* c :
         {&rates_.workflow_rows, &rates_.activity_rows, &rates_.activation_rows,
          &rates_.machine_rows, &rates_.file_rows, &rates_.value_rows,
          &rates_.queries, &rates_.wal_records, &rates_.wal_bytes,
          &rates_.wal_group_commits, &rates_.wal_rotations}) {
      c->store(nullptr, std::memory_order_relaxed);
    }
    rates_.wal_pending_bytes.store(nullptr, std::memory_order_relaxed);
    return;
  }
  rates_.workflow_rows.store(
      &registry->counter("scidock_prov_workflow_rows_total",
                         "hworkflow rows recorded"),
      std::memory_order_relaxed);
  rates_.activity_rows.store(
      &registry->counter("scidock_prov_activity_rows_total",
                         "hactivity rows recorded"),
      std::memory_order_relaxed);
  rates_.activation_rows.store(
      &registry->counter("scidock_prov_activation_rows_total",
                         "hactivation rows recorded"),
      std::memory_order_relaxed);
  rates_.machine_rows.store(
      &registry->counter("scidock_prov_machine_rows_total",
                         "hmachine rows recorded"),
      std::memory_order_relaxed);
  rates_.file_rows.store(
      &registry->counter("scidock_prov_file_rows_total", "hfile rows recorded"),
      std::memory_order_relaxed);
  rates_.value_rows.store(
      &registry->counter("scidock_prov_value_rows_total",
                         "hvalue rows recorded"),
      std::memory_order_relaxed);
  rates_.queries.store(&registry->counter("scidock_prov_queries_total",
                                          "SQL queries served by query()"),
                       std::memory_order_relaxed);
  rates_.wal_records.store(
      &registry->counter("scidock_prov_wal_records_total",
                         "WAL records made durable"),
      std::memory_order_relaxed);
  rates_.wal_bytes.store(&registry->counter("scidock_prov_wal_bytes_total",
                                            "WAL bytes made durable"),
                         std::memory_order_relaxed);
  rates_.wal_group_commits.store(
      &registry->counter("scidock_prov_wal_group_commits_total",
                         "group commits executed by the flusher"),
      std::memory_order_relaxed);
  rates_.wal_rotations.store(
      &registry->counter("scidock_prov_wal_rotations_total",
                         "WAL segments sealed (rotations)"),
      std::memory_order_relaxed);
  rates_.wal_pending_bytes.store(
      &registry->gauge("scidock_prov_wal_pending_bytes",
                       "WAL bytes buffered, not yet durable"),
      std::memory_order_relaxed);
  registry->gauge("scidock_prov_shards", "provenance store shard count")
      .set(static_cast<double>(shards_.size()));
  // Recovery findings describe this open, not a monotone run: gauges, so
  // re-attaching a registry is idempotent.
  registry
      ->gauge("scidock_prov_recovery_records",
              "WAL records replayed at the last open")
      .set(static_cast<double>(recovery_.records));
  registry
      ->gauge("scidock_prov_recovery_segments",
              "WAL segments found at the last open")
      .set(static_cast<double>(recovery_.segments));
  registry
      ->gauge("scidock_prov_recovery_truncated_bytes",
              "torn WAL bytes discarded at the last open")
      .set(static_cast<double>(recovery_.truncated_bytes));
  registry
      ->gauge("scidock_prov_recovery_orphan_rows",
              "referential-integrity prunes at the last open")
      .set(static_cast<double>(recovery_.orphan_rows));
}

sql::ResultSet ProvenanceStore::query(std::string_view sql_text) {
  bump(rates_.queries);
  std::vector<std::unique_ptr<MutexLock>> locks;
  std::vector<sql::Database*> dbs;
  locks.reserve(shards_.size());
  dbs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.push_back(std::make_unique<MutexLock>(shard->mutex));
    dbs.push_back(&shard->db);
  }
  sql::ShardedEngine engine(std::move(dbs),
                            {"hworkflow", "hactivity", "hmachine"});
  return engine.execute(sql_text);
}

long long ProvenanceStore::begin_workflow(std::string_view tag,
                                          std::string_view description,
                                          std::string_view expdir, double now) {
  ensure_writable();
  const long long id = next_wkfid_.fetch_add(1, std::memory_order_relaxed);
  WalRecord rec;
  rec.op = WalOp::BeginWorkflow;
  rec.i0 = id;
  rec.d0 = now;
  rec.s0 = std::string(tag);
  rec.s1 = std::string(description);
  rec.s2 = std::string(expdir);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    MutexLock lock(shard.mutex);
    apply_record(shard, rec);
    if (k == 0) log_record(shard, rec);
  }
  after_record();
  bump(rates_.workflow_rows);
  return id;
}

void ProvenanceStore::end_workflow(long long wkfid, double now) {
  ensure_writable();
  WalRecord rec;
  rec.op = WalOp::EndWorkflow;
  rec.i0 = wkfid;
  rec.d0 = now;
  {
    Shard& shard = *shards_[0];
    MutexLock lock(shard.mutex);
    const sql::Table& t = shard.db.table("hworkflow");
    const auto id_col = static_cast<std::size_t>(t.column_index("wkfid"));
    bool found = false;
    for (const sql::Row& row : t.rows()) {
      if (row[id_col].as_int() == wkfid) {
        found = true;
        break;
      }
    }
    if (!found) throw NotFoundError("workflow", std::to_string(wkfid));
    apply_record(shard, rec);
    log_record(shard, rec);
  }
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    MutexLock lock(shards_[k]->mutex);
    apply_record(*shards_[k], rec);
  }
  after_record();
}

long long ProvenanceStore::register_activity(long long wkfid,
                                             std::string_view tag,
                                             std::string_view activation_command,
                                             std::string_view op) {
  ensure_writable();
  const long long id = next_actid_.fetch_add(1, std::memory_order_relaxed);
  WalRecord rec;
  rec.op = WalOp::RegisterActivity;
  rec.i0 = id;
  rec.i1 = wkfid;
  rec.s0 = std::string(tag);
  rec.s1 = std::string(activation_command);
  rec.s2 = std::string(op);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    MutexLock lock(shard.mutex);
    apply_record(shard, rec);
    if (k == 0) log_record(shard, rec);
  }
  after_record();
  bump(rates_.activity_rows);
  return id;
}

long long ProvenanceStore::begin_activation(long long actid, long long wkfid,
                                            double now, long long vmid,
                                            std::string_view workload) {
  ensure_writable();
  const long long id = next_taskid_.fetch_add(1, std::memory_order_relaxed);
  WalRecord rec;
  rec.op = WalOp::BeginActivation;
  rec.i0 = id;
  rec.i1 = actid;
  rec.i2 = wkfid;
  rec.i3 = vmid;
  rec.d0 = now;
  rec.s0 = std::string(workload);
  Shard& shard = fact_shard(id);
  {
    MutexLock lock(shard.mutex);
    apply_record(shard, rec);
    log_record(shard, rec);
  }
  after_record();
  bump(rates_.activation_rows);
  return id;
}

void ProvenanceStore::end_activation(long long taskid, double now,
                                     std::string_view status, int exitcode,
                                     int attempts) {
  ensure_writable();
  WalRecord rec;
  rec.op = WalOp::EndActivation;
  rec.i0 = taskid;
  rec.i1 = exitcode;
  rec.i2 = attempts;
  rec.d0 = now;
  rec.s0 = std::string(status);
  Shard& shard = fact_shard(taskid);
  {
    MutexLock lock(shard.mutex);
    if (find_activation(shard, taskid) == nullptr) {
      throw NotFoundError("activation", std::to_string(taskid));
    }
    apply_record(shard, rec);
    log_record(shard, rec);
  }
  after_record();
}

void ProvenanceStore::record_machine(long long vmid, std::string_view type,
                                     int cores, double speed_factor) {
  ensure_writable();
  WalRecord rec;
  rec.op = WalOp::RecordMachine;
  rec.i0 = vmid;
  rec.i1 = cores;
  rec.d0 = speed_factor;
  rec.s0 = std::string(type);
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    MutexLock lock(shard.mutex);
    apply_record(shard, rec);
    if (k == 0) log_record(shard, rec);
  }
  after_record();
  bump(rates_.machine_rows);
}

void ProvenanceStore::record_file(long long wkfid, long long actid,
                                  long long taskid, std::string_view fname,
                                  std::size_t fsize, std::string_view fdir) {
  ensure_writable();
  WalRecord rec;
  rec.op = WalOp::RecordFile;
  rec.i0 = next_fileid_.fetch_add(1, std::memory_order_relaxed);
  rec.i1 = wkfid;
  rec.i2 = actid;
  rec.i3 = taskid;
  rec.i4 = static_cast<long long>(fsize);
  rec.s0 = std::string(fname);
  rec.s1 = std::string(fdir);
  Shard& shard = fact_shard(taskid);
  {
    MutexLock lock(shard.mutex);
    apply_record(shard, rec);
    log_record(shard, rec);
  }
  after_record();
  bump(rates_.file_rows);
}

void ProvenanceStore::record_value(long long taskid, std::string_view key,
                                   double value_num, std::string_view value_text) {
  ensure_writable();
  WalRecord rec;
  rec.op = WalOp::RecordValue;
  rec.i0 = next_valueid_.fetch_add(1, std::memory_order_relaxed);
  rec.i1 = taskid;
  rec.d0 = value_num;
  rec.s0 = std::string(key);
  rec.s1 = std::string(value_text);
  Shard& shard = fact_shard(taskid);
  {
    MutexLock lock(shard.mutex);
    apply_record(shard, rec);
    log_record(shard, rec);
  }
  after_record();
  bump(rates_.value_rows);
}

std::string ProvenanceStore::export_prov_n() {
  return with_database(
      [](sql::Database& db) { return export_prov_n_impl(db); });
}

std::string ProvenanceStore::content_digest() {
  return with_database([](sql::Database& db) {
    std::string out;
    for (const char* name :
         {"hmachine", "hworkflow", "hactivity", "hactivation", "hfile",
          "hvalue"}) {
      // Row order differs between a live store and its replayed twin
      // (shard interleaving), so combine per-row hashes commutatively.
      std::uint64_t acc_xor = 0;
      std::uint64_t acc_sum = 0;
      for (const sql::Row& row : db.table(name).rows()) {
        std::string repr;
        for (const sql::Value& v : row) {
          if (v.is_null()) {
            repr += "~|";
          } else if (v.is_int()) {
            repr += strformat("i%lld|", static_cast<long long>(v.as_int()));
          } else if (v.is_double()) {
            repr += strformat("d%.17g|", v.as_double());
          } else {
            repr += "s" + v.as_string() + "|";
          }
        }
        const std::uint64_t h = fnv1a64(repr);
        acc_xor ^= h;
        acc_sum += h;
      }
      out += strformat("%s:%016llx%016llx;", name,
                       static_cast<unsigned long long>(acc_xor),
                       static_cast<unsigned long long>(acc_sum));
    }
    return out;
  });
}

std::size_t ProvenanceStore::abort_open_activations(double now) {
  ensure_writable();
  std::vector<std::pair<long long, int>> open;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    for (const sql::Row& row : shard->db.table("hactivation").rows()) {
      if (row[kActStatus].as_string() == kStatusRunning) {
        open.emplace_back(row[kActTaskid].as_int(),
                          static_cast<int>(row[kActAttempts].as_int()));
      }
    }
  }
  for (const auto& [taskid, attempts] : open) {
    end_activation(taskid, now, kStatusFailed, -1, attempts);
  }
  return open.size();
}

sql::Database ProvenanceStore::snapshot_database() {
  sql::Database out;
  init_schema(out);
  std::vector<std::unique_ptr<MutexLock>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.push_back(std::make_unique<MutexLock>(shard->mutex));
  }
  for (const char* name : kDimTables) {
    sql::Table& dst = out.table(name);
    for (const sql::Row& row : shards_[0]->db.table(name).rows()) {
      dst.insert(row);
    }
  }
  for (const char* name : kFactTables) {
    sql::Table& dst = out.table(name);
    for (const auto& shard : shards_) {
      for (const sql::Row& row : shard->db.table(name).rows()) {
        dst.insert(row);
      }
    }
  }
  return out;
}

DurabilityStats ProvenanceStore::durability_stats() const {
  DurabilityStats s;
  s.records_logged = records_logged_.load(std::memory_order_relaxed);
  s.records_durable = records_durable_.load(std::memory_order_relaxed);
  s.bytes_durable = bytes_durable_.load(std::memory_order_relaxed);
  s.group_commits = group_commits_.load(std::memory_order_relaxed);
  s.segment_rotations = rotations_total_.load(std::memory_order_relaxed);
  s.pending_bytes = pending_bytes_total_.load(std::memory_order_relaxed);
  return s;
}

void ProvenanceStore::flush() {
  ensure_writable();
  if (!durable() || !options_.group_commit) return;
  MutexLock lock(flusher_mutex_);
  const long long ticket = ++flush_tickets_;
  flusher_cv_.notify_one();
  while (!crashed_.load(std::memory_order_acquire) &&
         flush_completed_ < ticket) {
    flush_done_cv_.wait(flusher_mutex_);
  }
  ensure_writable();
}

void ProvenanceStore::recover() {
  vfs::SharedFileSystem& fs = *options_.vfs;
  const auto raise = [](std::atomic<long long>& counter, long long id) {
    if (counter.load(std::memory_order_relaxed) <= id) {
      counter.store(id + 1, std::memory_order_relaxed);
    }
  };
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    wal::ShardReplay replay = wal::replay_shard(fs, shard_dir(k), /*repair=*/true);
    recovery_.segments += replay.segments.size();
    recovery_.records += replay.records.size();
    recovery_.truncated_bytes += replay.truncated_bytes;
    for (const WalRecord& rec : replay.records) {
      apply_record(shard, rec);
      switch (rec.op) {
        case WalOp::BeginWorkflow: raise(next_wkfid_, rec.i0); break;
        case WalOp::RegisterActivity: raise(next_actid_, rec.i0); break;
        case WalOp::BeginActivation: raise(next_taskid_, rec.i0); break;
        case WalOp::RecordFile: raise(next_fileid_, rec.i0); break;
        case WalOp::RecordValue: raise(next_valueid_, rec.i0); break;
        default: break;
      }
    }
    shard.writer = std::make_unique<wal::SegmentWriter>(
        fs, shard_dir(k), options_.segment_max_bytes, replay.next_index);
    // Shadow-track the writer so racer can prove the documented
    // discipline: flusher thread (group commit) or under shard.mutex
    // (synchronous mode), never both.
    SCIDOCK_RACER_TRACK(shard.writer, "prov.shard.writer");
  }
  // Dimension records are logged by shard 0 only; replicate its replayed
  // copies into the other shards so per-shard joins stay complete.
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    for (const char* name : kDimTables) {
      sql::Table& dst = shards_[k]->db.table(name);
      for (const sql::Row& row : shards_[0]->db.table(name).rows()) {
        dst.insert(row);
      }
    }
  }
  prune_orphans();
}

void ProvenanceStore::prune_orphans() {
  // The commit protocol makes a fact durable only after the dimensions it
  // references, so orphans indicate tampering (or a protocol bug — the
  // recovery tests assert this stays zero). Prune them anyway: a store
  // that serves dangling joins is worse than one that drops them.
  std::unordered_set<long long> wkfids;
  std::unordered_set<long long> actids;
  for (const sql::Row& row : shards_[0]->db.table("hworkflow").rows()) {
    wkfids.insert(row[0].as_int());
  }
  for (const sql::Row& row : shards_[0]->db.table("hactivity").rows()) {
    actids.insert(row[0].as_int());
  }
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    sql::Table& act = shard.db.table("hactivation");
    recovery_.orphan_rows += act.erase_if([&](const sql::Row& row) {
      return !actids.contains(row[kActActid].as_int()) ||
             !wkfids.contains(row[kActWkfid].as_int());
    });
    std::unordered_set<long long> taskids;
    for (const sql::Row& row : act.rows()) {
      taskids.insert(row[kActTaskid].as_int());
    }
    recovery_.orphan_rows += shard.db.table("hfile").erase_if(
        [&](const sql::Row& row) { return !taskids.contains(row[3].as_int()); });
    recovery_.orphan_rows += shard.db.table("hvalue").erase_if(
        [&](const sql::Row& row) { return !taskids.contains(row[1].as_int()); });
    shard.activation_rows.clear();
    const std::vector<sql::Row>& rows = act.rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      shard.activation_rows.emplace(rows[i][kActTaskid].as_int(), i);
    }
  }
}

void ProvenanceStore::start_flusher() {
  flusher_edge_ = sync::on_spawn(sync::Site::current());
  flusher_ = std::thread([this] { flusher_main(); });
}

void ProvenanceStore::flusher_main() {
  sync::TaskScope task_scope(flusher_edge_);
  const auto interval =
      std::chrono::milliseconds(std::max(options_.group_commit_interval_ms, 1));
  for (;;) {
    long long target = 0;
    {
      MutexLock lock(flusher_mutex_);
      if (!stop_ && flush_tickets_ == flush_completed_ &&
          pending_bytes_total_.load(std::memory_order_relaxed) <
              static_cast<long long>(options_.group_commit_max_bytes)) {
        flusher_cv_.wait_for(flusher_mutex_, interval);
      }
      if (crashed_.load(std::memory_order_acquire)) break;
      target = flush_tickets_;
      if (pending_bytes_total_.load(std::memory_order_relaxed) == 0 &&
          target == flush_completed_) {
        if (stop_) break;
        continue;
      }
    }
    const bool ok = commit_once();
    {
      MutexLock lock(flusher_mutex_);
      flush_completed_ = target;
      flush_done_cv_.notify_all();
      if (!ok) break;
      if (stop_ &&
          pending_bytes_total_.load(std::memory_order_relaxed) == 0 &&
          flush_tickets_ == flush_completed_) {
        break;
      }
    }
  }
  // Wake any flush() waiters so they observe the crashed/stopped state.
  MutexLock lock(flusher_mutex_);
  flush_done_cv_.notify_all();
}

bool ProvenanceStore::commit_once() {
  const std::size_t n = shards_.size();
  std::vector<std::string> batches(n);
  std::vector<long long> counts(n, 0);
  // Snapshot fact shards first and shard 0 — the only shard whose log
  // carries dimension records — last; write shard 0 first below. A fact
  // enqueued after its dimension can then never be snapshotted without
  // it, so durable facts always reference durable dimensions.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = (i + 1) % n;  // 1, 2, ..., n-1, 0
    Shard& shard = *shards_[k];
    MutexLock lock(shard.mutex);
    batches[k] = std::move(shard.pending);
    shard.pending.clear();
    counts[k] = shard.pending_records;
    shard.pending_records = 0;
    pending_bytes_total_.fetch_sub(static_cast<long long>(batches[k].size()),
                                   std::memory_order_relaxed);
  }

  long long bytes = 0;
  long long records = 0;
  for (std::size_t k = 0; k < n; ++k) {
    bytes += static_cast<long long>(batches[k].size());
    records += counts[k];
  }
  if (records == 0) return true;

  long long rotated = 0;
  try {
    for (std::size_t k = 0; k < n; ++k) {
      if (batches[k].empty()) continue;
      SCIDOCK_RACER_WRITE(shards_[k]->writer);
      const std::size_t before = shards_[k]->writer->rotations();
      shards_[k]->writer->append(batches[k], 0.0);
      rotated += static_cast<long long>(shards_[k]->writer->rotations() - before);
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (!batches[k].empty()) shards_[k]->writer->sync();
    }
  } catch (...) {
    crashed_.store(true, std::memory_order_release);
    return false;
  }
  records_durable_.fetch_add(records, std::memory_order_relaxed);
  bytes_durable_.fetch_add(bytes, std::memory_order_relaxed);
  group_commits_.fetch_add(1, std::memory_order_relaxed);
  if (rotated > 0) rotations_total_.fetch_add(rotated, std::memory_order_relaxed);
  bump(rates_.wal_records, records);
  bump(rates_.wal_bytes, bytes);
  bump(rates_.wal_group_commits);
  if (rotated > 0) bump(rates_.wal_rotations, rotated);
  if (obs::Gauge* g = rates_.wal_pending_bytes.load(std::memory_order_relaxed)) {
    g->set(static_cast<double>(
        pending_bytes_total_.load(std::memory_order_relaxed)));
  }
  return true;
}

}  // namespace scidock::prov
