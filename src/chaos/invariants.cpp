#include "chaos/invariants.hpp"

#include <algorithm>
#include <set>

#include "obs/obs.hpp"
#include "util/lockdep.hpp"
#include "util/strings.hpp"

namespace scidock::chaos {

namespace {

/// What `queries` find in `store`: each row's message, in query order.
std::vector<std::string> violations_of(
    prov::ProvenanceStore& store,
    const std::vector<prov::InvariantQuery>& queries) {
  std::vector<std::string> out;
  for (const prov::InvariantQuery& q : queries) {
    std::set<std::string> present;
    if (!q.keys.empty()) {
      for (const auto& r : store.query(q.keys).rows) {
        present.insert(r[0].to_string());
      }
    }
    for (const auto& r : store.query(q.sql).rows) {
      if (q.keys.empty() || !present.contains(r[1].to_string())) {
        out.push_back(r[0].to_string());
      }
    }
  }
  return out;
}

/// The counts every executor's report carries, from its RunTally.
RunSummary summary_of(const char* executor, const wf::RunTally& tally,
                      std::size_t input_tuples, int attempt_budget) {
  RunSummary s;
  s.executor = executor;
  s.input_tuples = input_tuples;
  s.activations_finished = tally.activations_finished;
  s.activations_failed = tally.activations_failed;
  s.activations_hung = tally.activations_hung;
  s.tuples_completed = tally.tuples_completed;
  s.tuples_lost = tally.tuples_lost;
  s.attempt_budget = attempt_budget;
  s.max_observed_attempt = tally.max_attempt;
  return s;
}

}  // namespace

RunSummary summarize(const wf::SimReport& report,
                     const wf::SimExecutorOptions& options,
                     std::size_t input_tuples,
                     prov::ProvenanceStore* prov) {
  RunSummary s =
      summary_of("sim", report, input_tuples, options.failure.max_attempts);
  // The simulation is deterministic to the last double, so the digest
  // covers every timing and, with a store, every attempt it recorded.
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
  if (prov != nullptr) d += "store " + prov->content_digest() + "\n";
  s.digest = std::move(d);
  return s;
}

RunSummary summarize(const wf::NativeReport& report,
                     const wf::NativeExecutorOptions& options,
                     std::size_t input_tuples) {
  RunSummary s =
      summary_of("native", report, input_tuples, options.max_attempts);
  // Conservation counts the output relation, not the tally, so a row the
  // slot merge dropped or duplicated shows (Map-only pipelines).
  s.tuples_completed = static_cast<long long>(report.output.size());
  // Wall-clock timings are excluded: only counters and the output
  // relation must be byte-identical across replays.
  std::string d = strformat(
      "native finished=%lld failed=%lld hung=%lld completed=%lld lost=%lld\n",
      s.activations_finished, s.activations_failed, s.activations_hung,
      s.tuples_completed, s.tuples_lost);
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
  if (unexpected_losses > 0 &&
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
  const std::string who =
      "[" + summary.executor + "/" + workflow_tag + "] provenance: ";
  const sql::ResultSet wkf = store.query(prov::workflow_id_sql(workflow_tag));
  if (wkf.rows.empty()) return fail(who + "no hworkflow row for tag");
  const long long wkfid = wkf.rows[0][0].as_int();
  bool ok = true;
  const auto violation = [&](const std::string& what) {
    ok = fail(who + what);
  };
  for (const std::string& v : violations_of(
           store, prov::run_invariant_queries(wkfid, summary.attempt_budget))) {
    violation(v);
  }

  // Status counts against the report.
  long long finished = 0, failed = 0, aborted = 0;
  for (const auto& r :
       store.query(prov::activations_by_status_sql(wkfid)).rows) {
    const std::string& status = r[0].as_string();
    if (status == prov::kStatusFinished) finished = r[1].as_int();
    else if (status == prov::kStatusFailed) failed = r[1].as_int();
    else if (status == prov::kStatusAborted) aborted = r[1].as_int();
    else if (status != prov::kStatusRunning) {
      violation("unknown status " + status);
    }
  }
  const auto count = [&](long long stored, const char* status,
                         long long report) {
    if (stored != report) {
      violation(strformat("%lld %s rows vs %lld in report", stored, status,
                          report));
    }
  };
  count(finished, "FINISHED", summary.activations_finished);
  count(failed, "FAILED", summary.activations_failed);
  count(aborted, "ABORTED", summary.activations_hung);
  // A complete chain contributes chain_length FINISHED rows; a lost tuple
  // contributes between 0 and chain_length - 1.
  const long long lo = summary.tuples_completed * chain_length;
  const long long hi = lo + summary.tuples_lost * (chain_length - 1);
  if (finished < lo || finished > hi) {
    violation(strformat(
        "%lld FINISHED rows outside [%lld, %lld] for %lld completed / %lld "
        "lost tuples over %d stages",
        finished, lo, hi, summary.tuples_completed, summary.tuples_lost,
        chain_length));
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
  for (const auto& row :
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
  for (const std::string& v :
       violations_of(store, prov::store_invariant_queries())) {
    ok = fail("recovery: " + v);
  }
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
