#include <algorithm>
#include <functional>

#include "bench.hpp"
#include "data/generator.hpp"
#include "data/table2.hpp"
#include "obs/obs.hpp"
#include "scidock/experiment.hpp"
#include "scidock/scidock.hpp"

namespace perfbench {

namespace sd = scidock;

namespace {

const char* const kStageTags[] = {
    sd::core::kBabel,     sd::core::kPrepLigand, sd::core::kPrepReceptor,
    sd::core::kGpfPrep,   sd::core::kAutogrid,   sd::core::kDockFilter,
    sd::core::kDpfPrep,   sd::core::kConfPrep,   sd::core::kAutodock4,
    sd::core::kAutodockVina};
const char* const kTimedStages[] = {sd::core::kAutogrid, sd::core::kAutodock4,
                                    sd::core::kAutodockVina};
const char* const kQueries[] = {"query1", "figure5", "forensics", "hg",
                                "steering"};

/// The paper's largest fleet (Figures 7-9).
constexpr int kVirtualCores = 128;
/// Times make_experiment before measuring, so setup_s is a median of many
/// set-ups even when only one batch fits the budget: at least 3 and at
/// most 25 calls, stopping once half a second has been spent.
void sample_setups(const std::vector<std::string>& receptors,
                   const std::vector<std::string>& ligands,
                   std::vector<double>& samples) {
  const double start = now_s();
  for (int i = 0; i < 25 && (i < 3 || now_s() - start < 0.5); ++i) {
    const double t0 = now_s();
    sd::core::make_experiment(receptors, ligands, 0, {});
    samples.push_back(now_s() - t0);
  }
}

/// Every per-layer metric with its unit. A layer that does not run on a
/// workload (docking on the replay) reports 0.
Metrics layer_metric_template() {
  Metrics m;
  const auto add = [&m](const std::string& name, const char* unit) {
    m[name] = Metric{0.0, unit};
  };
  for (const char* name :
       {"wf.busy_frac", "trace_overhead_frac", "cache.hit_ratio"}) {
    add(name, "frac");
  }
  for (const char* name :
       {"wf.failed_attempts", "wf.tuples_lost", "wf.pairs_dropped",
        "dock.ad4.evals", "dock.vina.evals", "dock.autogrid.mapsets",
        "cache.hits", "cache.misses", "cache.inflight_waits", "vfs.files",
        "prov.wal.records", "prov.wal.group_commits", "prov.replay_records",
        "prov.rows", "sim.activations", "sim.failed", "sim.hung",
        "data.files"}) {
    add(name, "count");
  }
  for (const char* name :
       {"wf.pool_queue_wait_s", "dock.autogrid.compute_s", "cache.overhead_s",
        "prov.ingest_s", "prov.flush_s", "prov.recovery_s", "sim.replay_s",
        "sim.tet_s", "sql.suite_s", "data.stage_s"}) {
    add(name, "s");
  }
  for (const char* name :
       {"dock.ad4.evals_per_s", "dock.vina.evals_per_s", "dock.evals_per_s"}) {
    add(name, "1/s");
  }
  add("vfs.bytes_written", "B");
  add("prov.wal.bytes", "B");
  for (const char* tag : kStageTags) {
    add(std::string("stage.") + tag + ".s", "s");
    add(std::string("stage.") + tag + ".n", "count");
  }
  for (const char* tag : kTimedStages) {
    add(std::string("stage.") + tag + ".p50_ms", "ms");
    add(std::string("stage.") + tag + ".p99_ms", "ms");
  }
  for (const char* q : kQueries) {
    add(std::string("sql.") + q + "_ms", "ms");
    add(std::string("sql.") + q + "_rows", "count");
  }
  return m;
}

sd::prov::ProvenanceStoreOptions durable_store(sd::vfs::SharedFileSystem& fs) {
  sd::prov::ProvenanceStoreOptions opts;
  opts.shard_count = static_cast<std::size_t>(hardware_threads());
  opts.vfs = &fs;
  opts.wal_dir = "/prov";
  return opts;
}

/// Reopen the WAL into a fresh store `reps` times. Every durable record
/// must replay; with `same_digest` the reopened store must also reproduce
/// the live store's content digest.
struct Recovery {
  double seconds = 0.0;  ///< median
  long long records = 0;
  long long orphan_rows = 0;
};
Recovery reopen(const sd::prov::ProvenanceStoreOptions& opts,
                const sd::prov::DurabilityStats& live_wal,
                const std::string& live_digest, bool same_digest, int reps,
                std::vector<std::string>& errors) {
  Recovery r;
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    sd::prov::ProvenanceStore reopened(opts);
    seconds.push_back(now_s() - t0);
    const sd::prov::RecoveryReport& rec = reopened.last_recovery();
    r.records = static_cast<long long>(rec.records);
    r.orphan_rows = static_cast<long long>(rec.orphan_rows);
    if (i > 0) continue;
    if (r.records != live_wal.records_durable) {
      errors.push_back("reopen replayed " + std::to_string(r.records) +
                       " WAL records of " +
                       std::to_string(live_wal.records_durable));
    }
    if (same_digest && reopened.content_digest() != live_digest) {
      errors.push_back("reopened store's content_digest differs from the "
                       "live store's");
    }
  }
  r.seconds = median(seconds);
  return r;
}

long long finished_count(const std::map<std::string, sd::RunningStats>& per,
                         const char* tag) {
  const auto it = per.find(tag);
  return it == per.end() ? 0 : static_cast<long long>(it->second.count());
}

void put_sql(Metrics& m, const QuerySuite& q) {
  m["sql.suite_s"].value = q.pass_seconds;
  for (const char* name : kQueries) {
    m[std::string("sql.") + name + "_ms"].value = q.median_ms.at(name);
    m[std::string("sql.") + name + "_rows"].value =
        static_cast<double>(q.rows.at(name));
  }
}

void put_prov_rows(Metrics& m, const sd::obs::MetricsRegistry& registry) {
  long long rows = 0;
  for (const char* table :
       {"workflow", "activity", "activation", "machine", "file", "value"}) {
    rows += registry.counter_value(std::string("scidock_prov_") + table +
                                   "_rows_total");
  }
  m["prov.rows"].value = static_cast<double>(rows);
}

void put_data_staging(Metrics& m, const std::vector<std::string>& receptors,
                      const std::vector<std::string>& ligands) {
  sd::vfs::SharedFileSystem fs;
  const double t0 = now_s();
  const int files = sd::data::stage_dataset(fs, "/bench", receptors, ligands);
  m["data.stage_s"].value = now_s() - t0;
  m["data.files"].value = files;
}

/// Simulator counters of a replay, and the replay's wall time without a
/// provenance store (the baseline prov.ingest_s subtracts).
void put_sim(Metrics& m, const sd::wf::SimReport& sim, double replay_s) {
  m["sim.replay_s"].value = replay_s;
  m["sim.activations"].value = static_cast<double>(sim.activations_finished);
  m["sim.failed"].value = static_cast<double>(sim.activations_failed);
  m["sim.hung"].value = static_cast<double>(sim.activations_hung);
  m["sim.tet_s"].value = sim.total_execution_time_s;
}

void check_span_tree(const sd::obs::TraceRecorder& trace,
                     std::vector<std::string>& errors) {
  const sd::obs::SpanTree tree = sd::obs::build_span_tree(trace.events());
  for (const std::string& e : tree.errors) errors.push_back("trace: " + e);
}

/// Runs `batch(traced)` until the budget is spent: timed batches only, or
/// (traced run) timed and traced batches alternating, at least one of each
/// kind. A batch starts only if a typical batch still fits the budget.
void run_batches(const Args& args,
                 const std::function<void(bool traced)>& batch) {
  std::vector<double> durations;
  const double start = now_s();
  for (int i = 0;; ++i) {
    const double t0 = now_s();
    batch(args.trace && i % 2 == 1);
    durations.push_back(now_s() - t0);
    const bool enough = !args.trace || i >= 1;
    if (enough && now_s() - start + median(durations) > args.seconds) break;
  }
}

/// Per-key median over the traced batches, on top of the zero template.
Metrics median_layers(const std::vector<Metrics>& traced) {
  Metrics out = layer_metric_template();
  for (auto& [name, metric] : out) {
    std::vector<double> v;
    for (const Metrics& m : traced) {
      if (const auto it = m.find(name); it != m.end()) v.push_back(it->second.value);
    }
    if (!v.empty()) metric.value = median(v);
  }
  return out;
}

void record_build_context(RunResult& r, const Args& args, int workers) {
  r.info["seed"] = std::to_string(args.seed);
  r.info["workers"] = std::to_string(workers);
  r.info["nproc"] = std::to_string(hardware_threads());
}

/// Median of f over a run's batches.
template <typename Batch, typename F>
double median_by(const std::vector<Batch>& batches, F f) {
  std::vector<double> x;
  for (const Batch& b : batches) x.push_back(f(b));
  return median(x);
}

/// JSON array of f over a run's batches (f returns a JSON literal).
template <typename T, typename F>
std::string json_array(const std::vector<T>& items, F f) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) out += (i ? "," : "") + f(items[i]);
  return out + "]";
}

// ---------------------------------------------------------------------
// Native screens
// ---------------------------------------------------------------------

struct ScreenShape {
  std::size_t receptors = 0;
  std::vector<std::string> ligands;
  int workers = 1;
};

/// A screen's store is small, so its queries and reopens take
/// milliseconds; the traced run reports the median of a few.
constexpr int kScreenQueryPasses = 5;
constexpr int kScreenReopens = 5;

struct ScreenBatch {
  double native_s = 0.0;
  double flush_s = 0.0;
  long long input_pairs = 0;
  long long pairs_docked = 0;
  long long attempts = 0;
  Conservation conservation;
  std::string digest;
  long long orphan_rows = 0;  ///< pruned when the WAL was reopened
  Metrics layers;  ///< traced batches only
};

void put_screen_layers(Metrics& m, const ScreenBatch& b, const ScreenShape& shape,
                       const sd::wf::NativeReport& report, const StageProbe& probe,
                       sd::obs::MetricsRegistry& registry,
                       const std::vector<DockLog>& logs) {
  m["wf.busy_frac"].value =
      probe.total_seconds() / (b.native_s * static_cast<double>(shape.workers));
  m["wf.pool_queue_wait_s"].value =
      registry.histogram("scidock_pool_queue_wait_seconds").sum();
  m["wf.failed_attempts"].value =
      static_cast<double>(report.activations_failed + report.activations_hung);
  m["wf.tuples_lost"].value = static_cast<double>(report.tuples_lost);
  m["wf.pairs_dropped"].value = static_cast<double>(b.conservation.dropped);

  std::map<std::string, double> stage_s;
  for (const char* tag : kStageTags) {
    const std::vector<double> s = probe.samples(tag);
    double sum = 0.0;
    for (const double x : s) sum += x;
    stage_s[tag] = sum;
    m[std::string("stage.") + tag + ".s"].value = sum;
    m[std::string("stage.") + tag + ".n"].value = static_cast<double>(s.size());
  }
  for (const char* tag : kTimedStages) {
    const std::vector<double> s = probe.samples(tag);
    m[std::string("stage.") + tag + ".p50_ms"].value = quantile(s, 0.50) * 1e3;
    m[std::string("stage.") + tag + ".p99_ms"].value = quantile(s, 0.99) * 1e3;
  }

  long long ad4 = 0;
  long long vina = 0;
  for (const DockLog& log : logs) (log.engine == "ad4" ? ad4 : vina) += log.evaluations;
  const auto per_s = [](long long n, double s) {
    return s > 0.0 ? static_cast<double>(n) / s : 0.0;
  };
  m["dock.ad4.evals"].value = static_cast<double>(ad4);
  m["dock.vina.evals"].value = static_cast<double>(vina);
  m["dock.ad4.evals_per_s"].value = per_s(ad4, stage_s[sd::core::kAutodock4]);
  m["dock.vina.evals_per_s"].value = per_s(vina, stage_s[sd::core::kAutodockVina]);
  m["dock.evals_per_s"].value = per_s(ad4 + vina, b.native_s);
  const double compute_s =
      registry.histogram(sd::obs::kKernelAutogridSlabSeconds).sum();
  m["dock.autogrid.compute_s"].value = compute_s;
  m["dock.autogrid.mapsets"].value = static_cast<double>(
      registry.counter_value(sd::obs::kKernelAutogridMapsets));

  const auto hits = registry.counter_value(sd::obs::kCacheGridmapsHits);
  const auto misses = registry.counter_value(sd::obs::kCacheGridmapsMisses);
  const auto waits =
      registry.counter_value(sd::obs::kCacheGridmapsInflightWaits);
  m["cache.hits"].value = static_cast<double>(hits);
  m["cache.misses"].value = static_cast<double>(misses);
  m["cache.inflight_waits"].value = static_cast<double>(waits);
  m["cache.hit_ratio"].value =
      hits + misses + waits > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses + waits)
          : 0.0;
  m["cache.overhead_s"].value = stage_s[sd::core::kAutogrid] - compute_s;
  put_prov_rows(m, registry);
}

ScreenBatch screen_batch(const std::vector<std::string>& receptors,
                         const ScreenShape& shape, bool traced,
                         std::vector<double>& setup_samples, RunResult& result) {
  ScreenBatch b;
  std::unique_ptr<sd::obs::TraceRecorder> trace;
  std::unique_ptr<sd::obs::MetricsRegistry> registry;
  if (traced) {
    trace = std::make_unique<sd::obs::TraceRecorder>();
    registry = std::make_unique<sd::obs::MetricsRegistry>();
  }
  const sd::core::ScidockOptions options;
  double t0 = now_s();
  sd::core::Experiment exp = [&] {
    sd::obs::ScopedSpan span(trace.get(), "bench.make_experiment", "bench");
    return sd::core::make_experiment(receptors, shape.ligands, 0, options);
  }();
  setup_samples.push_back(now_s() - t0);
  const sd::prov::ProvenanceStoreOptions store_opts = durable_store(*exp.fs);
  exp.prov = std::make_shared<sd::prov::ProvenanceStore>(store_opts);
  auto probe = std::make_shared<StageProbe>();
  if (traced) exp.pipeline = wrap_stages(exp.pipeline, probe, trace.get());

  t0 = now_s();
  const sd::wf::NativeReport report = [&] {
    sd::obs::ScopedSpan span(trace.get(), "bench.run_native", "bench");
    return sd::core::run_native(exp, shape.workers, "SciDock",
                                {trace.get(), registry.get()});
  }();
  b.native_s = now_s() - t0;
  t0 = now_s();
  {
    sd::obs::ScopedSpan span(trace.get(), "bench.prov_flush", "bench");
    exp.prov->flush();
  }
  b.flush_s = now_s() - t0;
  b.pairs_docked = finished_count(report.per_activity_seconds, sd::core::kAutodock4) +
                   finished_count(report.per_activity_seconds, sd::core::kAutodockVina);
  b.attempts = report.activations_finished + report.activations_failed +
               report.activations_hung;

  const std::vector<DockLog> logs = read_dock_logs(*exp.fs, options.expdir);
  b.digest = feb_rmsd_digest(logs);
  b.conservation = check_conservation(exp.pairs, report, logs, *exp.prov,
                                      sd::wf::NativeExecutorOptions{}.max_attempts);
  for (const std::string& e : b.conservation.errors) result.errors.push_back(e);
  b.input_pairs = static_cast<long long>(exp.pairs.size());
  result.attempted += b.input_pairs;
  result.failed += b.conservation.unplaced;

  QuerySuite suite;
  {
    sd::obs::ScopedSpan span(trace.get(), "bench.query_suite", "bench");
    suite = run_query_suite(*exp.prov, "SciDock", kScreenQueryPasses);
  }
  for (const std::string& e : suite.errors) result.errors.push_back(e);
  const sd::prov::DurabilityStats wal = exp.prov->durability_stats();
  const std::string live_digest = exp.prov->content_digest();
  exp.prov.reset();  // drains the group-commit flusher
  Recovery recovery;
  {
    sd::obs::ScopedSpan span(trace.get(), "bench.prov_reopen", "bench");
    // A native run records its relation files with taskid 0, which
    // recovery prunes as orphans, so only the record count is checked here
    // and the pruned rows are reported.
    recovery = reopen(store_opts, wal, live_digest, /*same_digest=*/false,
                      kScreenReopens, result.errors);
  }
  b.orphan_rows = recovery.orphan_rows;

  if (traced) {
    Metrics& m = b.layers;
    put_screen_layers(m, b, shape, report, *probe, *registry, logs);
    m["vfs.bytes_written"].value = static_cast<double>(exp.fs->bytes_written());
    m["vfs.files"].value = static_cast<double>(exp.fs->file_count());
    m["prov.flush_s"].value = b.flush_s;
    m["prov.wal.records"].value = static_cast<double>(wal.records_durable);
    m["prov.wal.bytes"].value = static_cast<double>(wal.bytes_durable);
    m["prov.wal.group_commits"].value = static_cast<double>(wal.group_commits);
    m["prov.replay_records"].value = static_cast<double>(recovery.records);
    m["prov.recovery_s"].value = recovery.seconds;
    put_sql(m, suite);

    // The screen's pairs replayed on the simulator, without and with a
    // durable store: the sim layer and the prov write path at this size.
    t0 = now_s();
    const sd::wf::SimReport sim = sd::core::run_simulated(exp, kVirtualCores);
    const double replay_s = now_s() - t0;
    put_sim(m, sim, replay_s);
    sd::vfs::SharedFileSystem sim_fs;
    {
      sd::prov::ProvenanceStore sim_store(durable_store(sim_fs));
      t0 = now_s();
      sd::core::run_simulated(exp, kVirtualCores, &sim_store);
      m["prov.ingest_s"].value = now_s() - t0 - replay_s;
    }
    put_data_staging(m, receptors, shape.ligands);
    check_span_tree(*trace, result.errors);
  }
  return b;
}

RunResult run_screen(const Args& args, const ScreenShape& shape) {
  RunResult result;
  const std::vector<std::string> receptors = draw_receptors(shape.receptors, args.seed);
  record_build_context(result, args, shape.workers);
  result.info["receptors"] = json_array(receptors, json_string);
  result.info["ligands"] = std::to_string(shape.ligands.size());

  std::vector<double> setup_samples;
  sample_setups(receptors, shape.ligands, setup_samples);

  std::vector<ScreenBatch> timed;
  std::vector<ScreenBatch> traced;
  run_batches(args, [&](bool trace_this) {
    ScreenBatch b = screen_batch(receptors, shape, trace_this, setup_samples, result);
    (trace_this ? traced : timed).push_back(std::move(b));
    // Later batches only add heap fragmentation, so the peak is taken
    // after the first one and does not depend on how many batches fit.
    if (timed.size() == 1 && !trace_this) result.metrics["peak_rss_mb"] = peak_rss();
  });

  const auto pairs_per_s = [](const ScreenBatch& b) {
    return static_cast<double>(b.pairs_docked) / b.native_s;
  };
  bool digest_stable = true;
  for (const auto* v : {&timed, &traced}) {
    for (const ScreenBatch& b : *v) digest_stable &= b.digest == timed.front().digest;
  }
  const Conservation& c = timed.front().conservation;
  result.info["batches"] = std::to_string(timed.size() + traced.size());
  result.info["feb_rmsd_digest"] = json_string(timed.front().digest);
  result.info["feb_rmsd_digest_stable"] = digest_stable ? "true" : "false";
  result.info["conservation"] =
      "{\"in_output\":" + std::to_string(c.in_output) +
      ",\"lost\":" + std::to_string(c.lost) +
      ",\"dropped\":" + std::to_string(c.dropped) +
      ",\"unplaced\":" + std::to_string(c.unplaced) + "}";
  result.info["prov_orphans_on_reopen"] = std::to_string(timed.front().orphan_rows);
  result.info["batch_pairs_per_s"] = json_array(
      timed, [&](const ScreenBatch& b) { return std::to_string(pairs_per_s(b)); });

  if (args.trace) {
    std::vector<Metrics> layers;
    for (const ScreenBatch& b : traced) layers.push_back(b.layers);
    result.metrics = median_layers(layers);
    result.metrics["trace_overhead_frac"].value =
        1.0 - median_by(traced, pairs_per_s) / median_by(timed, pairs_per_s);
    return result;
  }
  result.metrics["pairs_per_s"] = {median_by(timed, pairs_per_s), "1/s"};
  result.metrics["activations_per_s"] = {
      median_by(timed, [](const ScreenBatch& b) {
        return static_cast<double>(b.attempts) / (b.native_s + b.flush_s);
      }),
      "1/s"};
  result.metrics["pair_yield_frac"] = {
      median_by(timed, [](const ScreenBatch& b) {
        return static_cast<double>(b.conservation.in_output) /
               static_cast<double>(b.input_pairs);
      }),
      "frac"};
  result.metrics["setup_s"] = {median(setup_samples), "s"};
  return result;
}

}  // namespace

RunResult run_screen_paper(const Args& args) {
  ScreenShape shape;
  shape.receptors = 10;
  shape.ligands = sd::data::table2_ligands();
  shape.workers = std::max(1, hardware_threads() - 1);
  return run_screen(args, shape);
}

RunResult run_screen_wide(const Args& args) {
  ScreenShape shape;
  // The first 18 receptors hold the Hg-bearing 1CS8. Three of the four
  // Table 3 ligands keep a batch near ten seconds on one worker, so three
  // harness processes fit a run.
  shape.receptors = 18;
  const std::vector<std::string>& table3 = sd::data::table3_ligands();
  shape.ligands.assign(table3.begin(), table3.begin() + 3);
  shape.workers = 1;
  return run_screen(args, shape);
}

// ---------------------------------------------------------------------
// Campaign replay
// ---------------------------------------------------------------------

namespace {

struct ReplayIteration {
  double replay_s = 0.0;  ///< run_simulated with the store, plus flush
  long long attempts = 0;
  long long pairs_docked = 0;
  double yield = 0.0;
  std::string fingerprint;  ///< must repeat exactly across iterations
  Metrics layers;
};

ReplayIteration replay_iteration(std::uint64_t sim_seed, bool traced,
                                 std::vector<double>& setup_samples,
                                 RunResult& result) {
  ReplayIteration it;
  const std::vector<std::string>& receptors = sd::data::table2_receptors();
  const std::vector<std::string>& ligands = sd::data::table2_ligands();
  double t0 = now_s();
  const sd::core::Experiment exp =
      sd::core::make_experiment(receptors, ligands, 0, {});
  setup_samples.push_back(now_s() - t0);
  const auto input = static_cast<long long>(exp.pairs.size());
  result.attempted += input;

  std::unique_ptr<sd::obs::TraceRecorder> trace;
  std::unique_ptr<sd::obs::MetricsRegistry> registry;
  sd::wf::SimExecutorOptions sim_opts =
      sd::core::default_sim_options(kVirtualCores, sim_seed);
  sd::vfs::SharedFileSystem wal_fs;
  const sd::prov::ProvenanceStoreOptions store_opts = durable_store(wal_fs);
  auto store = std::make_unique<sd::prov::ProvenanceStore>(store_opts);
  if (traced) {
    trace = std::make_unique<sd::obs::TraceRecorder>();
    registry = std::make_unique<sd::obs::MetricsRegistry>();
    sim_opts.obs = {trace.get(), registry.get()};
    store->set_metrics(registry.get());
  }

  t0 = now_s();
  const sd::wf::SimReport sim =
      sd::core::run_simulated(exp, kVirtualCores, store.get(), sim_opts);
  const double run_s = now_s() - t0;
  t0 = now_s();
  store->flush();
  const double flush_s = now_s() - t0;
  it.replay_s = run_s + flush_s;
  it.attempts =
      sim.activations_finished + sim.activations_failed + sim.activations_hung;
  it.pairs_docked =
      finished_count(sim.per_activity_seconds, sd::core::kAutodock4) +
      finished_count(sim.per_activity_seconds, sd::core::kAutodockVina);
  it.yield = static_cast<double>(sim.tuples_completed) / static_cast<double>(input);

  // Conservation: every pair completes or is lost, and provenance agrees
  // (the fresh store holds one workflow, wkfid 1).
  long long prov_docked = 0;
  for (const char* tag : {sd::core::kAutodock4, sd::core::kAutodockVina}) {
    const sd::sql::ResultSet rs =
        store->query(sd::prov::finished_activation_count_sql(1, tag));
    prov_docked += rs.rows.empty() ? 0 : rs.rows[0].at(0).as_int();
  }
  const long long unplaced = input - sim.tuples_completed - sim.tuples_lost;
  result.failed += std::max(0LL, unplaced);
  if (unplaced != 0 || it.pairs_docked != sim.tuples_completed ||
      prov_docked != sim.tuples_completed) {
    result.errors.push_back(
        "replay conservation: " + std::to_string(input) + " pairs, " +
        std::to_string(sim.tuples_completed) + " completed, " +
        std::to_string(sim.tuples_lost) + " lost, " +
        std::to_string(prov_docked) + " docked in provenance");
  }

  const QuerySuite suite = run_query_suite(*store, "SciDock-sim", 2);
  for (const std::string& e : suite.errors) result.errors.push_back(e);
  const sd::prov::DurabilityStats wal = store->durability_stats();
  const std::string live_digest = store->content_digest();
  store.reset();
  const Recovery recovery = reopen(store_opts, wal, live_digest,
                                   /*same_digest=*/true, 3, result.errors);

  char tet[64];
  std::snprintf(tet, sizeof tet, "%.17g", sim.total_execution_time_s);
  it.fingerprint = std::string("tet=") + tet +
                   " finished=" + std::to_string(sim.activations_finished) +
                   " failed=" + std::to_string(sim.activations_failed) +
                   " hung=" + std::to_string(sim.activations_hung);
  for (const auto& [name, rows] : suite.rows) {
    it.fingerprint += " " + name + "=" + std::to_string(rows);
  }

  if (traced) {
    Metrics& m = it.layers;
    double busy = 0.0;
    for (const auto& [tag, stats] : sim.per_activity_seconds) busy += stats.sum();
    m["wf.busy_frac"].value =
        busy / (sim.total_execution_time_s * static_cast<double>(sim.total_cores));
    m["wf.failed_attempts"].value =
        static_cast<double>(sim.activations_failed + sim.activations_hung);
    m["wf.tuples_lost"].value = static_cast<double>(sim.tuples_lost);
    m["vfs.bytes_written"].value = static_cast<double>(wal_fs.bytes_written());
    m["vfs.files"].value = static_cast<double>(wal_fs.file_count());
    m["prov.flush_s"].value = flush_s;
    m["prov.wal.records"].value = static_cast<double>(wal.records_durable);
    m["prov.wal.bytes"].value = static_cast<double>(wal.bytes_durable);
    m["prov.wal.group_commits"].value = static_cast<double>(wal.group_commits);
    m["prov.replay_records"].value = static_cast<double>(recovery.records);
    m["prov.recovery_s"].value = recovery.seconds;
    put_prov_rows(m, *registry);
    put_sql(m, suite);
    t0 = now_s();
    const sd::wf::SimReport bare = sd::core::run_simulated(
        exp, kVirtualCores, nullptr,
        sd::core::default_sim_options(kVirtualCores, sim_seed));
    const double bare_s = now_s() - t0;
    put_sim(m, bare, bare_s);
    m["prov.ingest_s"].value = run_s - bare_s;
    if (bare.total_execution_time_s != sim.total_execution_time_s) {
      result.errors.push_back("replay TET depends on whether a store is attached");
    }
    put_data_staging(m, receptors, ligands);
    check_span_tree(*trace, result.errors);
  }
  return it;
}

}  // namespace

RunResult run_campaign_replay(const Args& args) {
  RunResult result;
  // Seed 0 is the simulator's default seed, the paper-shaped replay.
  const std::uint64_t sim_seed = args.seed == 0 ? 42 : args.seed;
  record_build_context(result, args, 1);
  result.info["virtual_cores"] = std::to_string(kVirtualCores);
  result.info["sim_seed"] = std::to_string(sim_seed);

  std::vector<double> setup_samples;
  sample_setups(sd::data::table2_receptors(), sd::data::table2_ligands(),
                setup_samples);
  std::vector<ReplayIteration> timed;
  std::vector<ReplayIteration> traced;
  run_batches(args, [&](bool trace_this) {
    ReplayIteration it = replay_iteration(sim_seed, trace_this, setup_samples, result);
    (trace_this ? traced : timed).push_back(std::move(it));
    if (timed.size() == 1 && !trace_this) result.metrics["peak_rss_mb"] = peak_rss();
  });
  for (const auto* v : {&timed, &traced}) {
    for (const ReplayIteration& it : *v) {
      if (it.fingerprint != timed.front().fingerprint) {
        result.errors.push_back("replay is not deterministic: '" + it.fingerprint +
                                "' vs '" + timed.front().fingerprint + "'");
      }
    }
  }
  result.info["batches"] = std::to_string(timed.size() + traced.size());
  result.info["fingerprint"] = json_string(timed.front().fingerprint);

  const auto activations_per_s = [](const ReplayIteration& it) {
    return static_cast<double>(it.attempts) / it.replay_s;
  };
  result.info["batch_activations_per_s"] =
      json_array(timed, [&](const ReplayIteration& it) {
        return std::to_string(activations_per_s(it));
      });
  if (args.trace) {
    std::vector<Metrics> layers;
    for (const ReplayIteration& it : traced) layers.push_back(it.layers);
    result.metrics = median_layers(layers);
    result.metrics["trace_overhead_frac"].value =
        1.0 - median_by(traced, activations_per_s) /
                  median_by(timed, activations_per_s);
    return result;
  }
  result.metrics["pairs_per_s"] = {
      median_by(timed, [](const ReplayIteration& it) {
        return static_cast<double>(it.pairs_docked) / it.replay_s;
      }),
      "1/s"};
  result.metrics["activations_per_s"] = {median_by(timed, activations_per_s), "1/s"};
  result.metrics["pair_yield_frac"] = {
      median_by(timed, [](const ReplayIteration& it) { return it.yield; }), "frac"};
  result.metrics["setup_s"] = {median(setup_samples), "s"};
  return result;
}

}  // namespace perfbench
