#include "prov/prov.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_set>
#include <utility>

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

constexpr const char* kFactTables[] = {"hactivation", "hfile", "hvalue"};

std::string export_prov_n_impl(sql::Engine& engine) {
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

/// `text` as a SQL string literal: quoted, each ' doubled (the lexer's
/// escape). Every builder interpolates text through it.
std::string sql_literal(std::string_view text) {
  std::string out = "'";
  for (const char c : text) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

}  // namespace

std::string workflow_id_sql(std::string_view tag) {
  return "SELECT wkfid FROM hworkflow WHERE tag = " + sql_literal(tag) +
         " ORDER BY wkfid DESC LIMIT 1";
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
      "AND a.tag = %s AND t.status = %s",
      wkfid, sql_literal(activity_tag).c_str(),
      sql_literal(kStatusFinished).c_str());
}

// ---- invariant queries ----
// Each selects the message first; `||` prints a real exactly.

namespace {

/// Timestamps inside one attempt chain may touch exactly (the simulator
/// redispatches at the failure instant); anything earlier is a violation.
constexpr double kTimeEps = 1e-9;

/// The message prefix of a tuple-activity site: hactivation row `a`'s
/// (actid, workload).
constexpr const char* kSite =
    "'site (actid=' || a.actid || ', workload=''' || a.workload || '''): '";

/// Rows `a` and `b` of one site of run `wkfid`, joined.
std::string site_join(long long wkfid) {
  return strformat(
      " FROM hactivation a, hactivation b WHERE a.wkfid = %lld "
      "AND b.wkfid = a.wkfid AND b.actid = a.actid "
      "AND b.workload = a.workload AND ",
      wkfid);
}

/// Activations (of those `where` admits) ending before they start.
std::string reversed_sql(const std::string& where) {
  return strformat(
      "SELECT 'activation ' || taskid || ' ends at ' || endtime || "
      "' before its start ' || starttime FROM hactivation "
      "WHERE %sendtime < starttime - %g ORDER BY taskid",
      where.c_str(), kTimeEps);
}

}  // namespace

std::vector<InvariantQuery> run_invariant_queries(long long wkfid,
                                                  int attempt_budget) {
  const std::string run = strformat("wkfid = %lld AND ", wkfid);
  return {
      {"open-workflow",
       "SELECT 'workflow row was never closed' FROM hworkflow WHERE " + run +
           "endtime IS NULL"},
      {"open-activations",
       "SELECT 'activation ' || taskid || ' left open (status ' || status || "
       "')' FROM hactivation WHERE " + run +
           "(status = 'RUNNING' OR endtime IS NULL) ORDER BY taskid"},
      {"reversed-activations", reversed_sql(run)},
      {"late-activations",
       strformat("SELECT 'activation ' || t.taskid || ' ends at ' || "
                 "t.endtime || ' after workflow end ' || w.endtime "
                 "FROM hworkflow w, hactivation t WHERE w.wkfid = %lld "
                 "AND t.wkfid = w.wkfid AND t.endtime > w.endtime + %g "
                 "ORDER BY t.taskid",
                 wkfid, kTimeEps)},
      {"over-budget",
       strformat("SELECT 'activation ' || taskid || ': attempt ' || "
                 "attempts || ' exceeds budget %d' FROM hactivation "
                 "WHERE %sattempts > %d ORDER BY taskid",
                 attempt_budget, run.c_str(), attempt_budget)},
      // Attempt n has exactly n - 1 attempts below it and no twin ...
      {"nonconsecutive-attempts",
       strformat("SELECT %s || 'attempt numbers not consecutive (got ' || "
                 "a.attempts || ' at position ' || (count(*) - 1) || ')'",
                 kSite) +
           site_join(wkfid) +
           "b.attempts <= a.attempts "
           "GROUP BY a.taskid, a.actid, a.workload, a.attempts "
           "HAVING count(*) <> a.attempts OR sum(b.attempts = a.attempts) <> 1 "
           "ORDER BY a.actid, a.workload, a.attempts"},
      // ... so with no later attempt after a FINISHED one, a site holds at
      // most one FINISHED row, and it is the last.
      {"finished-not-last",
       strformat("SELECT %s || 'FINISHED attempt ' || a.attempts || "
                 "' is not the last one'",
                 kSite) +
           site_join(wkfid) +
           "a.status = 'FINISHED' AND b.attempts > a.attempts "
           "GROUP BY a.actid, a.workload, a.attempts "
           "ORDER BY a.actid, a.workload, a.attempts"},
      {"overlapping-attempts",
       strformat("SELECT %s || 'attempt ' || b.attempts || ' starts at ' || "
                 "b.starttime || ' before attempt ' || a.attempts || "
                 "' ended at ' || a.endtime",
                 kSite) +
           site_join(wkfid) +
           strformat("b.attempts = a.attempts + 1 "
                     "AND b.starttime < a.endtime - %g "
                     "ORDER BY a.actid, a.workload, a.attempts",
                     kTimeEps)},
  };
}

std::vector<InvariantQuery> store_invariant_queries() {
  std::vector<InvariantQuery> out;
  for (const auto& [table, key] :
       {std::pair{"hworkflow", "wkfid"}, {"hactivity", "actid"},
        {"hactivation", "taskid"}, {"hfile", "fileid"},
        {"hvalue", "valueid"}}) {
    out.push_back({strformat("duplicate-%s", key),
                   strformat("SELECT 'duplicate %s ' || %s FROM %s GROUP BY %s "
                             "HAVING count(*) > 1 ORDER BY %s",
                             key, key, table, key, key)});
  }
  // A `table` row (of those `where` admits), named by its `id`, holds a
  // `key` of `target`; taskid 0 marks a workflow-level file.
  struct Reference {
    const char *table, *id, *key, *where, *target;
  };
  for (const Reference& r : {
           Reference{"hactivity", "actid", "wkfid", "", "hworkflow"},
           {"hactivation", "taskid", "actid", "", "hactivity"},
           {"hactivation", "taskid", "wkfid", "", "hworkflow"},
           {"hfile", "fileid", "taskid", " WHERE taskid <> 0", "hactivation"},
           {"hfile", "fileid", "wkfid", " WHERE taskid = 0", "hworkflow"},
           {"hvalue", "valueid", "taskid", "", "hactivation"}}) {
    out.push_back(
        {strformat("references-%s-%s", r.table, r.key),
         strformat("SELECT '%s ' || min(%s) || ' references missing %s ' || "
                   "%s, %s FROM %s%s GROUP BY %s ORDER BY %s",
                   r.table, r.id, r.target, r.key, r.key, r.table, r.where,
                   r.key, r.key),
         strformat("SELECT %s FROM %s ORDER BY %s", r.key, r.target, r.key)});
  }
  out.push_back(
      {"illegal-status",
       "SELECT 'activation ' || taskid || ' has illegal status ''' || "
       "status || '''' FROM hactivation WHERE status NOT IN "
       "('RUNNING', 'FINISHED', 'FAILED', 'ABORTED') ORDER BY taskid"});
  out.push_back(
      {"status-endtime-mismatch",
       "SELECT 'activation ' || taskid || ' status ''' || status || "
       "''' disagrees with its endtime ' || coalesce(endtime, 'NULL') "
       "FROM hactivation WHERE (status = 'RUNNING') <> (endtime IS NULL) "
       "ORDER BY taskid"});
  out.push_back({"reversed-activations", reversed_sql("")});
  out.push_back({"attempts-below-one",
                 "SELECT 'activation ' || taskid || ' has attempts ' || "
                 "attempts || ' < 1' FROM hactivation WHERE attempts < 1 "
                 "ORDER BY taskid"});
  return out;
}

void ProvenanceStore::init_schema(sql::Database& db) {
  using sql::Type;
  db.create_table("hmachine", {{"vmid", Type::Int},
                               {"type", Type::Text},
                               {"cores", Type::Int},
                               {"speed_factor", Type::Real}});
  db.create_table("hworkflow", {{"wkfid", Type::Int},
                                {"tag", Type::Text},
                                {"description", Type::Text},
                                {"expdir", Type::Text},
                                {"starttime", Type::Real},
                                {"endtime", Type::Real}});
  db.create_table("hactivity", {{"actid", Type::Int},
                                {"wkfid", Type::Int},
                                {"tag", Type::Text},
                                {"activation", Type::Text},
                                {"op", Type::Text}});
  db.create_table("hactivation", {{"taskid", Type::Int},
                                  {"actid", Type::Int},
                                  {"wkfid", Type::Int},
                                  {"starttime", Type::Real},
                                  {"endtime", Type::Real},
                                  {"status", Type::Text},
                                  {"vmid", Type::Int},
                                  {"exitcode", Type::Int},
                                  {"attempts", Type::Int},
                                  {"workload", Type::Text}});
  db.create_table("hfile", {{"fileid", Type::Int},
                            {"wkfid", Type::Int},
                            {"actid", Type::Int},
                            {"taskid", Type::Int},
                            {"fname", Type::Text},
                            {"fsize", Type::Int},
                            {"fdir", Type::Text}});
  db.create_table("hvalue", {{"valueid", Type::Int},
                             {"taskid", Type::Int},
                             {"key", Type::Text},
                             {"value_num", Type::Real},
                             {"value_text", Type::Text}});
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
    start_flusher();
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
  }
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
  shard.pending += frame;
  ++shard.pending_records;
  pending_bytes_total_.fetch_add(static_cast<long long>(frame.size()),
                                 std::memory_order_relaxed);
}

void ProvenanceStore::after_record() {
  if (!durable()) return;
  const long long pending = pending_bytes_total_.load(std::memory_order_relaxed);
  if (obs::Gauge* g = rates_.wal_pending_bytes.load(std::memory_order_relaxed)) {
    g->set(static_cast<double>(pending));
  }
  if (pending >= static_cast<long long>(options_.group_commit_max_bytes)) {
    flusher_cv_.notify_one();
  }
}

void ProvenanceStore::apply_dimension(const WalRecord& r) {
  {
    Shard& shard = *shards_[0];
    MutexLock lock(shard.mutex);
    apply_record(shard, r);
    log_record(shard, r);
  }
  after_record();
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

template <typename Fn>
auto ProvenanceStore::with_shard_engine(Fn&& fn) {
  std::vector<std::unique_ptr<MutexLock>> locks;
  std::vector<sql::Database*> dbs;
  locks.reserve(shards_.size());
  dbs.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.push_back(std::make_unique<MutexLock>(shard->mutex));
    dbs.push_back(&shard->db);
  }
  sql::Engine engine(std::move(dbs),
                     {std::begin(kFactTables), std::end(kFactTables)});
  return std::forward<Fn>(fn)(engine);
}

sql::ResultSet ProvenanceStore::query(std::string_view sql_text) {
  bump(rates_.queries);
  return with_shard_engine(
      [sql_text](sql::Engine& engine) { return engine.execute(sql_text); });
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
  apply_dimension(rec);
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
  apply_dimension(rec);
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
  apply_dimension(rec);
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
  return with_shard_engine(
      [](sql::Engine& engine) { return export_prov_n_impl(engine); });
}

std::string ProvenanceStore::content_digest() {
  // Row order differs between a live store and its replayed twin (shard
  // interleaving), so per-row hashes combine commutatively. Each shard's
  // rows are hashed in place under that shard's own lock.
  std::string out;
  const auto digest_table = [this, &out](const char* name,
                                         std::size_t shard_count) {
    std::uint64_t acc_xor = 0;
    std::uint64_t acc_sum = 0;
    for (std::size_t k = 0; k < shard_count; ++k) {
      Shard& shard = *shards_[k];
      MutexLock lock(shard.mutex);
      for (const sql::Row& row : shard.db.table(name).rows()) {
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
    }
    out += strformat("%s:%016llx%016llx;", name,
                     static_cast<unsigned long long>(acc_xor),
                     static_cast<unsigned long long>(acc_sum));
  };
  // Dimension tables live in shard 0, fact tables in every shard.
  for (const char* name : {"hmachine", "hworkflow", "hactivity"}) {
    digest_table(name, 1);
  }
  for (const char* name : kFactTables) digest_table(name, shards_.size());
  return out;
}

std::size_t ProvenanceStore::abort_open_activations(double now) {
  ensure_writable();
  const sql::ResultSet open = with_shard_engine([](sql::Engine& engine) {
    return engine.execute(
        "SELECT taskid, attempts FROM hactivation WHERE status = 'RUNNING'");
  });
  for (const sql::Row& row : open.rows) {
    end_activation(row[0].as_int(), now, kStatusFailed, -1,
                   static_cast<int>(row[1].as_int()));
  }
  return open.rows.size();
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
  if (!durable()) return;
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
    // Workflow-level files (the input and output relations) carry taskid
    // 0 and reference their workflow only.
    recovery_.orphan_rows += shard.db.table("hfile").erase_if(
        [&](const sql::Row& row) {
          const long long taskid = row[3].as_int();
          return taskid == 0 ? !wkfids.contains(row[1].as_int())
                             : !taskids.contains(taskid);
        });
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
  flusher_ = std::thread([this] { flusher_main(); });
}

void ProvenanceStore::flusher_main() {
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
