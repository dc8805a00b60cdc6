#include "chaos/invariants.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "obs/obs.hpp"
#include "util/lockdep.hpp"
#include "util/racer.hpp"
#include "util/strings.hpp"

namespace scidock::chaos {

namespace {

/// Timestamps inside one attempt chain may touch exactly (the simulator
/// redispatches at the failure instant); anything earlier is a violation.
constexpr double kTimeEps = 1e-9;

}  // namespace

RunSummary summarize(const wf::SimReport& report,
                     const wf::SimExecutorOptions& options,
                     std::size_t input_tuples) {
  RunSummary s;
  s.executor = "sim";
  s.input_tuples = input_tuples;
  s.activations_finished = report.activations_finished;
  s.activations_failed = report.activations_failed;
  s.activations_hung = report.activations_hung;
  s.tuples_completed = report.tuples_completed;
  s.tuples_lost = report.tuples_lost;
  s.attempt_budget = options.failure.max_attempts;
  for (const wf::SimActivationRecord& r : report.records) {
    s.max_observed_attempt = std::max(s.max_observed_attempt, r.attempt);
  }
  // The simulation is deterministic to the last double, so the digest
  // covers every timing and the complete activation record stream.
  std::string d = strformat(
      "sim tet=%.17g finished=%lld failed=%lld hung=%lld completed=%lld "
      "lost=%lld sched=%.17g staging=%.17g cost=%.17g\n",
      report.total_execution_time_s, report.activations_finished,
      report.activations_failed, report.activations_hung,
      report.tuples_completed, report.tuples_lost,
      report.scheduling_overhead_s, report.data_staging_s,
      report.cloud_cost_usd);
  for (const auto& [tag, stats] : report.per_activity_seconds) {
    d += strformat("act %s n=%zu sum=%.17g\n", tag.c_str(), stats.count(),
                   stats.sum());
  }
  for (const wf::SimActivationRecord& r : report.records) {
    d += strformat("rec %s t=%zu s=%.17g e=%.17g vm=%lld a=%d %s\n",
                   r.tag.c_str(), r.tuple_index, r.start, r.end, r.vm_id,
                   r.attempt, r.status.c_str());
  }
  s.digest = std::move(d);
  return s;
}

RunSummary summarize(const wf::NativeReport& report,
                     const wf::NativeExecutorOptions& options,
                     std::size_t input_tuples) {
  RunSummary s;
  s.executor = "native";
  s.input_tuples = input_tuples;
  s.activations_finished = report.activations_finished;
  s.activations_failed = report.activations_failed;
  s.activations_hung = report.activations_hung;
  s.tuples_completed = static_cast<long long>(report.output.size());
  s.tuples_lost = report.tuples_lost;
  s.attempt_budget = options.max_attempts;
  // The native report has no per-attempt records; 0 marks "unknown" and
  // check_provenance recovers the true maximum from the store. (A lost
  // native tuple always exhausted its budget by construction of the
  // attempt loop, so conservation needs no headroom clause here.)
  s.max_observed_attempt = 0;
  // Wall-clock timings are excluded: only counters and the output
  // relation must be byte-identical across replays.
  std::string d = strformat(
      "native finished=%lld failed=%lld hung=%lld completed=%lld lost=%lld\n",
      report.activations_finished, report.activations_failed,
      report.activations_hung, static_cast<long long>(report.output.size()),
      report.tuples_lost);
  for (const auto& [tag, stats] : report.per_activity_seconds) {
    d += strformat("act %s n=%zu\n", tag.c_str(), stats.count());
  }
  d += report.output.to_file_text();
  s.digest = std::move(d);
  return s;
}

bool InvariantChecker::fail(std::string message) {
  violations_.push_back(std::move(message));
  return false;
}

bool InvariantChecker::check_conservation(const RunSummary& summary) {
  bool ok = true;
  if (summary.tuples_completed + summary.tuples_lost !=
      static_cast<long long>(summary.input_tuples)) {
    ok = fail(strformat(
        "[%s] conservation: completed (%lld) + lost (%lld) != input (%zu)",
        summary.executor.c_str(), summary.tuples_completed,
        summary.tuples_lost, summary.input_tuples));
  }
  const long long unexpected_losses =
      summary.tuples_lost - summary.expected_hazard_losses;
  if (unexpected_losses > 0 && summary.max_observed_attempt > 0 &&
      summary.max_observed_attempt < summary.attempt_budget) {
    ok = fail(strformat(
        "[%s] conservation: %lld tuple(s) lost although the re-execution "
        "budget had headroom (max observed attempt %d < budget %d)",
        summary.executor.c_str(), unexpected_losses,
        summary.max_observed_attempt, summary.attempt_budget));
  }
  return ok;
}

bool InvariantChecker::check_provenance(const RunSummary& summary,
                                        prov::ProvenanceStore& store,
                                        const std::string& workflow_tag,
                                        int chain_length) {
  bool ok = true;
  const std::string who = "[" + summary.executor + "/" + workflow_tag + "]";

  // ---- scan the store under its lock (activations may still be live) ----
  struct Attempt {
    int number;
    std::string status;
    double start;
    double end;
  };
  std::map<std::pair<long long, std::string>, std::vector<Attempt>> sites;
  long long wkfid = -1;
  double workflow_end = 0.0;
  long long finished = 0, failed = 0, aborted = 0;
  int max_attempt = 0;
  store.with_database([&](sql::Database& db) {
    // ---- locate the workflow row ----
    const sql::Table& hworkflow = db.table("hworkflow");
    const auto w_id = static_cast<std::size_t>(hworkflow.column_index("wkfid"));
    const auto w_tag = static_cast<std::size_t>(hworkflow.column_index("tag"));
    const auto w_end =
        static_cast<std::size_t>(hworkflow.column_index("endtime"));
    for (const sql::Row& row : hworkflow.rows()) {
      if (row[w_tag].as_string() == workflow_tag) {
        wkfid = row[w_id].as_int();
        if (row[w_end].is_null()) {
          ok = fail(who + " provenance: workflow row was never closed");
        } else {
          workflow_end = row[w_end].as_double();
        }
      }
    }
    if (wkfid < 0) return;

    // ---- scan activations ----
    const sql::Table& hactivation = db.table("hactivation");
    const auto c_wkf =
        static_cast<std::size_t>(hactivation.column_index("wkfid"));
    const auto c_act =
        static_cast<std::size_t>(hactivation.column_index("actid"));
    const auto c_start =
        static_cast<std::size_t>(hactivation.column_index("starttime"));
    const auto c_end =
        static_cast<std::size_t>(hactivation.column_index("endtime"));
    const auto c_status =
        static_cast<std::size_t>(hactivation.column_index("status"));
    const auto c_attempts =
        static_cast<std::size_t>(hactivation.column_index("attempts"));
    const auto c_workload =
        static_cast<std::size_t>(hactivation.column_index("workload"));

    for (const sql::Row& row : hactivation.rows()) {
      if (row[c_wkf].as_int() != wkfid) continue;
      const std::string& status = row[c_status].as_string();
      if (status == prov::kStatusRunning || row[c_end].is_null()) {
        ok = fail(who + " provenance: activation left open (status " + status +
                  ")");
        continue;
      }
      const double start = row[c_start].as_double();
      const double end = row[c_end].as_double();
      const int attempt = static_cast<int>(row[c_attempts].as_int());
      if (end < start - kTimeEps) {
        ok = fail(strformat("%s provenance: endtime %.6f < starttime %.6f",
                            who.c_str(), end, start));
      }
      if (end > workflow_end + kTimeEps) {
        ok = fail(strformat(
            "%s provenance: activation ends at %.6f after workflow end %.6f",
            who.c_str(), end, workflow_end));
      }
      if (status == prov::kStatusFinished) ++finished;
      else if (status == prov::kStatusFailed) ++failed;
      else if (status == prov::kStatusAborted) ++aborted;
      else ok = fail(who + " provenance: unknown status " + status);
      max_attempt = std::max(max_attempt, attempt);
      sites[{row[c_act].as_int(), row[c_workload].as_string()}].push_back(
          Attempt{attempt, status, start, end});
    }
  });
  if (wkfid < 0) {
    return fail(who + " provenance: no hworkflow row for tag");
  }

  if (finished != summary.activations_finished) {
    ok = fail(strformat("%s provenance: %lld FINISHED rows vs %lld in report",
                        who.c_str(), finished, summary.activations_finished));
  }
  if (failed != summary.activations_failed) {
    ok = fail(strformat("%s provenance: %lld FAILED rows vs %lld in report",
                        who.c_str(), failed, summary.activations_failed));
  }
  if (aborted != summary.activations_hung) {
    ok = fail(strformat("%s provenance: %lld ABORTED rows vs %lld in report",
                        who.c_str(), aborted, summary.activations_hung));
  }
  if (max_attempt > summary.attempt_budget) {
    ok = fail(strformat("%s provenance: attempt %d exceeds budget %d",
                        who.c_str(), max_attempt, summary.attempt_budget));
  }

  // A complete chain contributes chain_length FINISHED rows; a lost tuple
  // contributes between 0 and chain_length - 1.
  const long long lo = summary.tuples_completed * chain_length;
  const long long hi = lo + summary.tuples_lost * (chain_length - 1);
  if (finished < lo || finished > hi) {
    ok = fail(strformat(
        "%s provenance: %lld FINISHED rows outside [%lld, %lld] for %lld "
        "completed / %lld lost tuples over %d stages",
        who.c_str(), finished, lo, hi, summary.tuples_completed,
        summary.tuples_lost, chain_length));
  }

  // ---- per tuple-activity site: one FINISHED, consecutive attempts ----
  for (auto& [site, attempts] : sites) {
    std::sort(attempts.begin(), attempts.end(),
              [](const Attempt& a, const Attempt& b) {
                return a.number < b.number;
              });
    const std::string where =
        strformat("%s provenance: site (actid=%lld, workload='%s')",
                  who.c_str(), site.first, site.second.c_str());
    int finished_here = 0;
    for (std::size_t i = 0; i < attempts.size(); ++i) {
      if (attempts[i].number != static_cast<int>(i) + 1) {
        ok = fail(strformat("%s: attempt numbers not consecutive (got %d at "
                            "position %zu)",
                            where.c_str(), attempts[i].number, i));
        break;
      }
      if (i > 0 && attempts[i].start < attempts[i - 1].end - kTimeEps) {
        ok = fail(strformat(
            "%s: attempt %d starts at %.6f before attempt %d ended at %.6f",
            where.c_str(), attempts[i].number, attempts[i].start,
            attempts[i - 1].number, attempts[i - 1].end));
      }
      if (attempts[i].status == prov::kStatusFinished) {
        ++finished_here;
        if (i + 1 != attempts.size()) {
          ok = fail(where + ": FINISHED attempt is not the last one");
        }
      }
    }
    if (finished_here > 1) {
      ok = fail(strformat("%s: %d FINISHED records (expected at most one)",
                          where.c_str(), finished_here));
    }
  }
  return ok;
}

bool InvariantChecker::check_metrics(const RunSummary& summary,
                                     const obs::MetricsRegistry& metrics,
                                     prov::ProvenanceStore& store,
                                     const std::string& workflow_tag) {
  bool ok = true;
  const std::string who = "[" + summary.executor + "/" + workflow_tag + "]";

  // ---- SQL side, via the shipped reconciliation queries ----
  const sql::ResultSet wkf_rs =
      store.query(prov::workflow_id_sql(workflow_tag));
  if (wkf_rs.rows.empty()) {
    return fail(who + " metrics: no hworkflow row for tag");
  }
  const long long wkfid = wkf_rs.rows.front().front().as_int();

  const long long sql_started =
      store.query(prov::activation_count_sql(wkfid)).rows.front().front().as_int();
  const long long sql_retried =
      store.query(prov::retried_activation_count_sql(wkfid))
          .rows.front()
          .front()
          .as_int();
  long long sql_finished = 0, sql_failed = 0, sql_aborted = 0;
  for (const sql::Row& row :
       store.query(prov::activations_by_status_sql(wkfid)).rows) {
    const std::string& status = row[0].as_string();
    const long long n = row[1].as_int();
    if (status == prov::kStatusFinished) sql_finished = n;
    else if (status == prov::kStatusFailed) sql_failed = n;
    else if (status == prov::kStatusAborted) sql_aborted = n;
    else ok = fail(who + " metrics: unexpected status " + status + " in SQL");
  }

  // ---- counter side ----
  struct Line {
    const char* counter;
    long long sql;
    long long report;
  };
  const Line lines[] = {
      {obs::kActivationsStarted, sql_started,
       summary.activations_finished + summary.activations_failed +
           summary.activations_hung},
      {obs::kActivationsFinished, sql_finished, summary.activations_finished},
      {obs::kActivationsFailed, sql_failed, summary.activations_failed},
      {obs::kActivationsAborted, sql_aborted, summary.activations_hung},
      {obs::kActivationsRetried, sql_retried, -1},  // report has no view
  };
  for (const Line& line : lines) {
    const long long counted = metrics.counter_value(line.counter);
    if (counted != line.sql) {
      ok = fail(strformat("%s metrics: %s = %lld but SQL counts %lld",
                          who.c_str(), line.counter, counted, line.sql));
    }
    if (line.report >= 0 && counted != line.report) {
      ok = fail(strformat("%s metrics: %s = %lld but the report says %lld",
                          who.c_str(), line.counter, counted, line.report));
    }
  }

  // ---- grid-map cache reconciliation (DESIGN.md §10) ----
  // The AutoGrid stage counts each FINISHED activation as exactly one of
  // hit / miss / inflight-wait (counters land only after every output is
  // emitted, so faulted attempts never count). Guarded on the sum: runs
  // whose pipeline has no instrumented AutoGrid stage (toy obs pipelines,
  // sim executor) register none of these series and skip the check.
  const long long cache_hits = metrics.counter_value(obs::kCacheGridmapsHits);
  const long long cache_misses =
      metrics.counter_value(obs::kCacheGridmapsMisses);
  const long long cache_waits =
      metrics.counter_value(obs::kCacheGridmapsInflightWaits);
  const long long cache_sum = cache_hits + cache_misses + cache_waits;
  if (cache_sum > 0) {
    const long long sql_autogrid_finished =
        store.query(prov::finished_activation_count_sql(wkfid, "autogrid"))
            .rows.front()
            .front()
            .as_int();
    if (cache_sum != sql_autogrid_finished) {
      ok = fail(strformat(
          "%s metrics: grid-map cache hits %lld + misses %lld + waits %lld "
          "= %lld but SQL counts %lld FINISHED autogrid activations",
          who.c_str(), cache_hits, cache_misses, cache_waits, cache_sum,
          sql_autogrid_finished));
    }
    // Map-set computations are counted when they happen, so activations
    // that computed and then failed keep mapsets above misses.
    const long long mapsets =
        metrics.counter_value(obs::kKernelAutogridMapsets);
    if (mapsets < cache_misses) {
      ok = fail(strformat(
          "%s metrics: %s = %lld but %lld cache misses each computed one",
          who.c_str(), obs::kKernelAutogridMapsets, mapsets, cache_misses));
    }
    // Every computed slab observes the histogram and bumps the counter
    // from the same callback; the two series must agree.
    const long long slabs = metrics.counter_value(obs::kKernelAutogridSlabs);
    const long long slab_obs =
        metrics.histogram_count(obs::kKernelAutogridSlabSeconds);
    if (slabs != slab_obs) {
      ok = fail(strformat(
          "%s metrics: %s = %lld but %s observed %lld slabs",
          who.c_str(), obs::kKernelAutogridSlabs, slabs,
          obs::kKernelAutogridSlabSeconds, slab_obs));
    }
  }
  return ok;
}

bool InvariantChecker::check_replay(const RunSummary& first,
                                    const RunSummary& second) {
  if (first.digest == second.digest) return true;
  // Find the first differing line for an actionable message.
  std::size_t pos = 0;
  const std::size_t n = std::min(first.digest.size(), second.digest.size());
  while (pos < n && first.digest[pos] == second.digest[pos]) ++pos;
  const std::size_t line =
      1 + static_cast<std::size_t>(
              std::count(first.digest.begin(),
                         first.digest.begin() +
                             static_cast<std::ptrdiff_t>(pos), '\n'));
  return fail(strformat(
      "[%s] replay: same-seed digests diverge at byte %zu (line %zu)",
      first.executor.c_str(), pos, line));
}

bool InvariantChecker::check_recovery(prov::ProvenanceStore& store) {
  bool ok = true;
  const prov::RecoveryReport& rec = store.last_recovery();
  if (rec.orphan_rows != 0) {
    ok = fail(strformat(
        "recovery: replay pruned %zu orphan fact row(s) — the commit "
        "protocol let a fact outlive its dimensions",
        rec.orphan_rows));
  }
  store.with_database([&](sql::Database& db) {
    std::set<long long> wkfids;
    for (const sql::Row& row : db.table("hworkflow").rows()) {
      if (!wkfids.insert(row[0].as_int()).second) {
        ok = fail(strformat("recovery: duplicate wkfid %lld",
                            static_cast<long long>(row[0].as_int())));
      }
    }
    std::set<long long> actids;
    for (const sql::Row& row : db.table("hactivity").rows()) {
      if (!actids.insert(row[0].as_int()).second) {
        ok = fail(strformat("recovery: duplicate actid %lld",
                            static_cast<long long>(row[0].as_int())));
      }
      if (!wkfids.contains(row[1].as_int())) {
        ok = fail(strformat("recovery: hactivity %lld references missing "
                            "workflow %lld",
                            static_cast<long long>(row[0].as_int()),
                            static_cast<long long>(row[1].as_int())));
      }
    }
    const sql::Table& hactivation = db.table("hactivation");
    std::set<long long> taskids;
    for (const sql::Row& row : hactivation.rows()) {
      const long long taskid = row[0].as_int();
      if (!taskids.insert(taskid).second) {
        ok = fail(strformat("recovery: duplicate taskid %lld", taskid));
      }
      if (!actids.contains(row[1].as_int()) ||
          !wkfids.contains(row[2].as_int())) {
        ok = fail(strformat(
            "recovery: activation %lld references missing activity %lld "
            "or workflow %lld",
            taskid, static_cast<long long>(row[1].as_int()),
            static_cast<long long>(row[2].as_int())));
      }
      const std::string& status = row[5].as_string();
      const bool open = status == prov::kStatusRunning;
      const bool closed = status == prov::kStatusFinished ||
                          status == prov::kStatusFailed ||
                          status == prov::kStatusAborted;
      if (!open && !closed) {
        ok = fail(strformat("recovery: activation %lld has illegal status "
                            "'%s'",
                            taskid, status.c_str()));
      }
      if (open != row[4].is_null()) {
        ok = fail(strformat(
            "recovery: activation %lld status '%s' disagrees with its "
            "endtime being %s",
            taskid, status.c_str(), row[4].is_null() ? "NULL" : "set"));
      }
      if (closed && row[4].as_double() < row[3].as_double() - kTimeEps) {
        ok = fail(strformat("recovery: activation %lld ends at %.6f before "
                            "its start %.6f",
                            taskid, row[4].as_double(), row[3].as_double()));
      }
      if (row[8].as_int() < 1) {
        ok = fail(strformat("recovery: activation %lld has attempts %lld < 1",
                            taskid,
                            static_cast<long long>(row[8].as_int())));
      }
    }
    std::set<long long> fileids;
    for (const sql::Row& row : db.table("hfile").rows()) {
      if (!fileids.insert(row[0].as_int()).second) {
        ok = fail(strformat("recovery: duplicate fileid %lld",
                            static_cast<long long>(row[0].as_int())));
      }
      if (!taskids.contains(row[3].as_int())) {
        ok = fail(strformat(
            "recovery: hfile %lld references missing activation %lld",
            static_cast<long long>(row[0].as_int()),
            static_cast<long long>(row[3].as_int())));
      }
    }
    std::set<long long> valueids;
    for (const sql::Row& row : db.table("hvalue").rows()) {
      if (!valueids.insert(row[0].as_int()).second) {
        ok = fail(strformat("recovery: duplicate valueid %lld",
                            static_cast<long long>(row[0].as_int())));
      }
      if (!taskids.contains(row[1].as_int())) {
        ok = fail(strformat(
            "recovery: hvalue %lld references missing activation %lld",
            static_cast<long long>(row[0].as_int()),
            static_cast<long long>(row[1].as_int())));
      }
    }
  });
  return ok;
}

bool InvariantChecker::check_sync() {
  bool ok = true;
  // rule_id returns a view of a string literal, so .data() is
  // NUL-terminated.
  for (const lockdep::Finding& f : lockdep::findings()) {
    if (!f.is_error) continue;
    ok = fail(strformat("lockdep %s: %s\n%s", lockdep::rule_id(f.kind).data(),
                        f.message.c_str(), f.details.c_str())) &&
         ok;
  }
  for (const racer::Finding& f : racer::findings()) {
    if (!f.is_error) continue;
    ok = fail(strformat("racer %s: %s\n%s", racer::rule_id(f.kind).data(),
                        f.message.c_str(), f.details.c_str())) &&
         ok;
  }
  return ok;
}

std::string InvariantChecker::to_string() const {
  std::string out;
  for (const std::string& v : violations_) {
    out += v;
    out += '\n';
  }
  return out;
}

}  // namespace scidock::chaos
