// Observability suite (ctest label: obs).
//
// Three layers of evidence that the tracing/metrics subsystem tells the
// truth:
//   1. unit checks on MetricsRegistry / TraceRecorder / the Chrome JSON
//      round-trip (the export is proven loadable by parsing it back);
//   2. golden-trace tests — a pinned-seed workflow must produce exactly
//      one well-nested span per activation attempt, with statuses in the
//      span args, for both executors;
//   3. provenance reconciliation — across a chaos-seed sweep the
//      scidock_executor_* counters must equal SQL counts over the
//      PROV-Wf store (InvariantChecker::check_metrics), with a tampered
//      store as the negative control.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>
#include <thread>

#include "chaos/chaos.hpp"
#include "chaos/invariants.hpp"
#include "cloud/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "prov/prov.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "vfs/vfs.hpp"
#include "wf/native_executor.hpp"
#include "wf/pipeline.hpp"
#include "wf/sim_executor.hpp"

namespace scidock::obs {
namespace {

using chaos::ChaosEngine;
using chaos::InvariantChecker;
using chaos::RunSummary;
using wf::ActivationContext;
using wf::AlgebraicOp;
using wf::Pipeline;
using wf::Relation;
using wf::Stage;
using wf::Tuple;

// ---------------------------------------------------------------- metrics

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("scidock_test_events_total", "events");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5);
  EXPECT_EQ(reg.counter_value("scidock_test_events_total"), 5);
  EXPECT_EQ(reg.counter_value("scidock_never_registered_total"), 0);

  Gauge& g = reg.gauge("scidock_test_depth");
  g.set(3.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  HistogramMetric& h = reg.histogram("scidock_test_seconds", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  ASSERT_EQ(h.bucket_count(), 3u);  // 1, 10, +Inf
  EXPECT_EQ(h.bucket_value(0), 1);
  EXPECT_EQ(h.bucket_value(1), 1);
  EXPECT_EQ(h.bucket_value(2), 1);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 55.5);
  EXPECT_EQ(reg.series_count(), 3u);
}

TEST(Metrics, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  Counter& a = reg.counter("scidock_test_total");
  Counter& b = reg.counter("scidock_test_total");
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, NameAndKindViolationsThrow) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("Bad-Name"), InvalidStateError);
  EXPECT_THROW(reg.counter("9starts_with_digit"), InvalidStateError);
  EXPECT_THROW(reg.counter(""), InvalidStateError);
  reg.counter("scidock_test_total");
  EXPECT_THROW(reg.gauge("scidock_test_total"), InvalidStateError);
  EXPECT_THROW(reg.histogram("scidock_test_total"), InvalidStateError);
}

TEST(Metrics, PrometheusExportIsSortedAndCumulative) {
  MetricsRegistry reg;
  reg.counter("scidock_b_total", "second").inc(2);
  reg.gauge("scidock_a_depth", "first").set(1.5);
  HistogramMetric& h = reg.histogram("scidock_c_seconds", {1.0});
  h.observe(0.5);
  h.observe(2.0);
  const std::string text = reg.to_prometheus_text();

  EXPECT_NE(text.find("# HELP scidock_a_depth first"), std::string::npos);
  EXPECT_NE(text.find("# TYPE scidock_a_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE scidock_b_total counter"), std::string::npos);
  EXPECT_NE(text.find("scidock_b_total 2"), std::string::npos);
  // Cumulative buckets: le="1" holds 1, le="+Inf" holds all 2.
  EXPECT_NE(text.find("scidock_c_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("scidock_c_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("scidock_c_seconds_count 2"), std::string::npos);
  // Sorted by name: a before b before c.
  EXPECT_LT(text.find("scidock_a_depth"), text.find("scidock_b_total"));
  EXPECT_LT(text.find("scidock_b_total"), text.find("scidock_c_seconds"));
}

// ------------------------------------------------------------------ trace

TEST(Trace, ScopedSpansNestOnOneThread) {
  TraceRecorder rec;
  {
    ScopedSpan outer(&rec, "outer", "test");
    {
      ScopedSpan inner(&rec, "inner", "test", {{"k", "v"}});
      inner.set_arg("status", "done");
    }
    SCIDOCK_TRACE_SPAN(&rec, "macro", "test");
  }
  const SpanTree tree = build_span_tree(rec.events());
  ASSERT_TRUE(tree.errors.empty()) << tree.errors.front();
  ASSERT_EQ(tree.roots_by_tid.size(), 1u);
  const std::vector<SpanNode>& roots = tree.roots_by_tid.front().second;
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "outer");
  ASSERT_EQ(roots[0].children.size(), 2u);
  EXPECT_EQ(roots[0].children[0].name, "inner");
  EXPECT_EQ(roots[0].children[1].name, "macro");
  // Begin args and End args land on the same node.
  const TraceArgs& args = roots[0].children[0].args;
  ASSERT_EQ(args.size(), 2u);
  EXPECT_EQ(args[0].first, "k");
  EXPECT_EQ(args[1].second, "done");
  EXPECT_EQ(tree.span_count(), 3u);
}

TEST(Trace, NullRecorderIsANoOp) {
  ScopedSpan span(nullptr, "nothing", "test");
  span.set_arg("ignored", "yes");
  SCIDOCK_TRACE_SPAN(nullptr, "also-nothing", "test");
}

TEST(Trace, CompleteSpansLandOnExplicitRows) {
  TraceRecorder rec;
  rec.complete_span("act-a", "activation", 1000.0, 500.0, /*tid=*/7);
  rec.complete_span("act-b", "activation", 2000.0, 250.0, /*tid=*/9);
  rec.instant("marker", "fault", 1500.0, /*tid=*/7);
  const SpanTree tree = build_span_tree(rec.events());
  ASSERT_TRUE(tree.errors.empty());
  EXPECT_EQ(tree.span_count(), 2u);  // instants do not create spans
  const std::vector<SpanNode>* row7 = tree.roots_for(7);
  ASSERT_NE(row7, nullptr);
  ASSERT_EQ(row7->size(), 1u);
  EXPECT_EQ((*row7)[0].name, "act-a");
  EXPECT_DOUBLE_EQ((*row7)[0].start_us, 1000.0);
  EXPECT_DOUBLE_EQ((*row7)[0].end_us, 1500.0);
  ASSERT_NE(tree.roots_for(9), nullptr);
  EXPECT_EQ(tree.roots_for(42), nullptr);
}

TEST(Trace, MalformedNestingIsReported) {
  TraceRecorder rec;
  const std::uint64_t a = rec.begin_span("a", "test");
  const std::uint64_t b = rec.begin_span("b", "test");
  rec.end_span(a);  // out of order: b is still open
  (void)b;          // never closed
  rec.end_span(999);  // orphan end
  const SpanTree tree = build_span_tree(rec.events());
  EXPECT_FALSE(tree.errors.empty());
  const std::string all = [&] {
    std::string s;
    for (const std::string& e : tree.errors) s += e + "\n";
    return s;
  }();
  EXPECT_NE(all.find("not well-nested"), std::string::npos) << all;
  EXPECT_NE(all.find("never closed"), std::string::npos) << all;
}

TEST(Trace, ChromeJsonRoundTrips) {
  TraceRecorder rec;
  {
    ScopedSpan span(&rec, "with \"quotes\" and \\slash\n", "cat",
                    {{"pair", "042_1AEC"}});
  }
  rec.complete_span("sim-act", "activation", 12.5, 3.25, 11,
                    {{"status", "FINISHED"}});
  rec.instant("mark", "fault", 20.0, 11);

  const std::string json = rec.to_chrome_json();
  const std::vector<TraceEvent> parsed = parse_chrome_trace(json);
  const std::vector<TraceEvent> original = rec.events();
  ASSERT_EQ(parsed.size(), original.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].name, original[i].name) << i;
    EXPECT_EQ(parsed[i].category, original[i].category) << i;
    EXPECT_EQ(parsed[i].phase, original[i].phase) << i;
    EXPECT_DOUBLE_EQ(parsed[i].ts_us, original[i].ts_us) << i;
    EXPECT_DOUBLE_EQ(parsed[i].dur_us, original[i].dur_us) << i;
    EXPECT_EQ(parsed[i].tid, original[i].tid) << i;
    EXPECT_EQ(parsed[i].args, original[i].args) << i;
  }
  // The parsed stream folds into the same tree shape.
  const SpanTree tree = build_span_tree(parsed);
  EXPECT_TRUE(tree.errors.empty());
  EXPECT_EQ(tree.span_count(), 2u);
}

TEST(Trace, ParserRejectsMalformedJson) {
  EXPECT_THROW(parse_chrome_trace("not json"), ParseError);
  EXPECT_THROW(parse_chrome_trace("{\"foo\":[]}"), ParseError);
  EXPECT_THROW(parse_chrome_trace("{\"traceEvents\":[{]}"), ParseError);
  EXPECT_THROW(parse_chrome_trace("{\"traceEvents\":[]} trailing"),
               ParseError);
  EXPECT_TRUE(parse_chrome_trace("{\"traceEvents\":[]}").empty());
}

// ------------------------------------------- shared workflow scaffolding

Relation obs_input(int n, int hazards = 0) {
  Relation rel{{"pair", "id", "hg"}};
  for (int i = 0; i < n; ++i) {
    Tuple t;
    t.set("pair", "pair-" + std::to_string(i));
    t.set("id", std::to_string(i));
    t.set("hg", i < hazards ? "1" : "0");
    rel.add(std::move(t));
  }
  return rel;
}

Pipeline obs_pipeline() {
  Pipeline p;
  p.add_stage(Stage{
      "produce", AlgebraicOp::Map,
      [](const Tuple& in, ActivationContext& ctx) {
        const std::string& id = in.require("id");
        ctx.fs->write("/obs/" + id + ".a", "a:" + id, ctx.now, "produce");
        Tuple out = in;
        out.set("a", std::to_string(3 * std::stoi(id)));
        return std::vector<Tuple>{out};
      },
      nullptr, nullptr, nullptr});
  p.add_stage(Stage{
      "consume", AlgebraicOp::Map,
      [](const Tuple& in, ActivationContext& ctx) {
        const std::string& id = in.require("id");
        ctx.fs->write("/obs/" + id + ".b", ctx.fs->read("/obs/" + id + ".a"),
                      ctx.now, "consume");
        Tuple out = in;
        out.set("b", in.require("a") + "!");
        return std::vector<Tuple>{out};
      },
      nullptr, nullptr, nullptr});
  return p;
}

cloud::CostModel obs_cost_model() {
  cloud::CostModel model;
  model.set_cost({"produce", 12.0, 0.4, 0.5});
  model.set_cost({"consume", 6.0, 0.4, 0.5});
  return model;
}

/// All spans of the "activation" category across every row of the tree.
std::vector<SpanNode> activation_spans(const SpanTree& tree) {
  std::vector<SpanNode> found;
  const std::function<void(const SpanNode&)> visit = [&](const SpanNode& n) {
    if (n.category == "activation") found.push_back(n);
    for (const SpanNode& c : n.children) visit(c);
  };
  for (const auto& [tid, roots] : tree.roots_by_tid) {
    for (const SpanNode& r : roots) visit(r);
  }
  return found;
}

std::string arg_value(const SpanNode& span, const std::string& key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return "";
}

// ----------------------------------------------------- golden traces

TEST(GoldenTrace, NativeRunHasOneSpanPerActivation) {
  const Pipeline p = obs_pipeline();
  const Relation input = obs_input(6);
  for (const int threads : {1, 3}) {
    TraceRecorder trace;
    MetricsRegistry metrics;
    vfs::SharedFileSystem fs;
    prov::ProvenanceStore store;
    wf::NativeExecutorOptions opts;
    opts.threads = threads;
    opts.seed = 1234;
    opts.obs = {&trace, &metrics};
    const wf::NativeReport report =
        wf::NativeExecutor(p, fs, store, opts).run(input, "golden-native");

    ASSERT_EQ(report.tuples_lost, 0) << "threads=" << threads;
    const SpanTree tree = build_span_tree(trace.events());
    ASSERT_TRUE(tree.errors.empty())
        << "threads=" << threads << ": " << tree.errors.front();

    // Exactly one root span for the run itself...
    std::size_t run_roots = 0;
    for (const auto& [tid, roots] : tree.roots_by_tid) {
      for (const SpanNode& r : roots) {
        if (r.name == "native-run") ++run_roots;
      }
    }
    EXPECT_EQ(run_roots, 1u) << "threads=" << threads;

    // ...and one "activation" span per activation attempt (2 stages x 6
    // tuples, fault-free), every one FINISHED.
    const std::vector<SpanNode> acts = activation_spans(tree);
    ASSERT_EQ(acts.size(),
              static_cast<std::size_t>(report.activations_finished));
    EXPECT_EQ(acts.size(), 12u);
    std::size_t produce = 0, consume = 0;
    for (const SpanNode& s : acts) {
      EXPECT_EQ(arg_value(s, "status"), "FINISHED");
      EXPECT_EQ(arg_value(s, "attempt"), "1");
      EXPECT_NE(arg_value(s, "pair"), "");
      EXPECT_GE(s.end_us, s.start_us);
      if (s.name == "produce") ++produce;
      if (s.name == "consume") ++consume;
    }
    EXPECT_EQ(produce, 6u);
    EXPECT_EQ(consume, 6u);
  }
}

TEST(GoldenTrace, NativeFaultsCloseTheirSpans) {
  const Pipeline p = obs_pipeline();
  const Relation input = obs_input(10);
  chaos::ChaosProfile profile = chaos::chaos_profile_heavy();
  profile.pool.exception_probability = 0.0;
  const ChaosEngine engine(profile, 77);

  TraceRecorder trace;
  vfs::SharedFileSystem fs;
  prov::ProvenanceStore store;
  wf::NativeExecutorOptions opts;
  opts.threads = 2;
  opts.max_attempts = 6;
  opts.seed = 77;
  opts.fault_injector = engine.activity_fault_injector();
  opts.obs.trace = &trace;
  const wf::NativeReport report =
      wf::NativeExecutor(p, fs, store, opts).run(input, "golden-faults");
  ASSERT_GT(report.activations_failed + report.activations_hung, 0)
      << "profile did not fire; the test is vacuous";

  const SpanTree tree = build_span_tree(trace.events());
  ASSERT_TRUE(tree.errors.empty()) << tree.errors.front();
  const std::vector<SpanNode> acts = activation_spans(tree);
  // Faulted attempts leave via `continue` — the RAII span must still
  // close, with the failure status attached.
  EXPECT_EQ(acts.size(),
            static_cast<std::size_t>(report.activations_finished +
                                     report.activations_failed +
                                     report.activations_hung));
  long long failed = 0, aborted = 0;
  for (const SpanNode& s : acts) {
    const std::string status = arg_value(s, "status");
    if (status == "FAILED") ++failed;
    if (status == "ABORTED") ++aborted;
  }
  EXPECT_EQ(failed, report.activations_failed);
  EXPECT_EQ(aborted, report.activations_hung);
}

TEST(GoldenTrace, SimulatedRunMatchesItsRecordStream) {
  const Pipeline p = obs_pipeline();
  const Relation input = obs_input(15);
  TraceRecorder trace;
  wf::SimExecutorOptions opts;
  opts.fleet = wf::m3_fleet_for_cores(8);
  opts.seed = 4242;
  opts.obs.trace = &trace;
  const wf::SimReport report =
      wf::SimulatedExecutor(p, obs_cost_model(), opts).run(input);

  const SpanTree tree = build_span_tree(trace.events());
  ASSERT_TRUE(tree.errors.empty()) << tree.errors.front();
  std::vector<SpanNode> acts = activation_spans(tree);
  ASSERT_EQ(acts.size(), report.records.size());

  // Simulated spans are stamped with simulated seconds x 1e6 on the VM's
  // trace row; sort both sides identically and compare field by field.
  std::sort(acts.begin(), acts.end(),
            [](const SpanNode& a, const SpanNode& b) {
              return a.start_us != b.start_us ? a.start_us < b.start_us
                                              : a.tid < b.tid;
            });
  std::vector<wf::SimActivationRecord> recs = report.records;
  std::sort(recs.begin(), recs.end(),
            [](const wf::SimActivationRecord& a,
               const wf::SimActivationRecord& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.vm_id < b.vm_id;
            });
  for (std::size_t i = 0; i < acts.size(); ++i) {
    EXPECT_EQ(acts[i].name, recs[i].tag) << i;
    EXPECT_EQ(acts[i].tid, recs[i].vm_id) << i;
    EXPECT_DOUBLE_EQ(acts[i].start_us, recs[i].start * 1e6) << i;
    EXPECT_DOUBLE_EQ(acts[i].end_us, recs[i].end * 1e6) << i;
    EXPECT_EQ(arg_value(acts[i], "status"), recs[i].status) << i;
    EXPECT_EQ(arg_value(acts[i], "attempt"), std::to_string(recs[i].attempt))
        << i;
  }

  // One vm-boot span per fleet VM.
  std::size_t boots = 0;
  for (const auto& [tid, roots] : tree.roots_by_tid) {
    for (const SpanNode& r : roots) {
      if (r.name == "vm-boot") ++boots;
    }
  }
  EXPECT_EQ(boots, opts.fleet.size());
}

// --------------------------------------- metrics <-> provenance sweep

constexpr int kReconcileSeeds = 24;

TEST(Reconciliation, SimCountersMatchProvenanceAcrossSeeds) {
  const Pipeline p = obs_pipeline();
  const cloud::CostModel model = obs_cost_model();
  const Relation input = obs_input(20);
  long long faults_seen = 0;
  for (int seed = 0; seed < kReconcileSeeds; ++seed) {
    const ChaosEngine engine(seed % 2 == 0 ? chaos::chaos_profile_light()
                                           : chaos::chaos_profile_heavy(),
                             static_cast<std::uint64_t>(seed));
    wf::SimExecutorOptions opts;
    opts.fleet = wf::m3_fleet_for_cores(8);
    opts.failure = engine.failure_options(6, /*hang_timeout_s=*/300.0);
    opts.seed = static_cast<std::uint64_t>(seed);
    MetricsRegistry metrics;  // fresh per run: counters are cumulative
    opts.obs.metrics = &metrics;
    prov::ProvenanceStore store;
    const wf::SimReport report =
        wf::SimulatedExecutor(p, model, opts).run(input, &store, "obs-sim");

    const RunSummary summary = chaos::summarize(report, opts, input.size());
    InvariantChecker checker;
    checker.check_conservation(summary);
    checker.check_metrics(summary, metrics, store, "obs-sim");
    checker.check_sync();
    ASSERT_TRUE(checker.ok()) << "seed=" << seed << "\n"
                              << checker.to_string();
    faults_seen += report.activations_failed + report.activations_hung;
  }
  EXPECT_GT(faults_seen, 20);
}

TEST(Reconciliation, NativeCountersMatchProvenanceAcrossSeeds) {
  const Pipeline p = obs_pipeline();
  const Relation input = obs_input(10);
  long long faults_seen = 0;
  for (int seed = 0; seed < kReconcileSeeds; ++seed) {
    chaos::ChaosProfile profile = seed % 2 == 0
                                      ? chaos::chaos_profile_light()
                                      : chaos::chaos_profile_heavy();
    profile.vfs.path_substring = "/obs/";
    profile.pool.exception_probability = 0.0;
    const ChaosEngine engine(profile, static_cast<std::uint64_t>(seed));

    vfs::SharedFileSystem fs;
    fs.set_fault_hook(engine.vfs_hook());
    prov::ProvenanceStore store;
    MetricsRegistry metrics;
    wf::NativeExecutorOptions opts;
    opts.threads = 1 + seed % 4;
    opts.max_attempts = 6;
    opts.seed = static_cast<std::uint64_t>(seed);
    opts.fault_injector = engine.activity_fault_injector();
    opts.obs.metrics = &metrics;
    const wf::NativeReport report =
        wf::NativeExecutor(p, fs, store, opts).run(input, "obs-native");

    const RunSummary summary = chaos::summarize(report, opts, input.size());
    InvariantChecker checker;
    checker.check_conservation(summary);
    checker.check_metrics(summary, metrics, store, "obs-native");
    checker.check_sync();
    ASSERT_TRUE(checker.ok()) << "seed=" << seed << " threads=" << opts.threads
                              << "\n"
                              << checker.to_string();
    faults_seen += report.activations_failed + report.activations_hung;
  }
  EXPECT_GT(faults_seen, 10);
}

TEST(Reconciliation, TamperedStoreIsFlagged) {
  const Pipeline p = obs_pipeline();
  const Relation input = obs_input(8);
  MetricsRegistry metrics;
  wf::SimExecutorOptions opts;
  opts.fleet = wf::m3_fleet_for_cores(4);
  opts.seed = 5;
  opts.obs.metrics = &metrics;
  prov::ProvenanceStore store;
  const wf::SimReport report = wf::SimulatedExecutor(p, obs_cost_model(), opts)
                                   .run(input, &store, "tamper");
  const RunSummary summary = chaos::summarize(report, opts, input.size());
  InvariantChecker before;
  ASSERT_TRUE(before.check_metrics(summary, metrics, store, "tamper"))
      << before.to_string();

  // Drop one FINISHED row; the started and finished counters must both
  // stop matching.
  bool dropped = false;
  store.with_database([&](sql::Database& db) {
    sql::Table& t = db.table("hactivation");
    const auto c_status = static_cast<std::size_t>(t.column_index("status"));
    t.erase_if([&](const sql::Row& row) {
      if (dropped || row[c_status].as_string() != prov::kStatusFinished) {
        return false;
      }
      dropped = true;
      return true;
    });
  });
  ASSERT_TRUE(dropped);
  InvariantChecker after;
  EXPECT_FALSE(after.check_metrics(summary, metrics, store, "tamper"));
  EXPECT_FALSE(after.violations().empty());
}

TEST(Reconciliation, MissingWorkflowIsFlagged) {
  MetricsRegistry metrics;
  prov::ProvenanceStore store;
  RunSummary summary;
  summary.executor = "native";
  InvariantChecker checker;
  EXPECT_FALSE(checker.check_metrics(summary, metrics, store, "no-such-tag"));
}

// ------------------------------------------------------ concurrency

TEST(Concurrency, RegistryAndRecorderSurviveHammering) {
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  MetricsRegistry reg;
  TraceRecorder rec;
  Counter& shared = reg.counter("scidock_test_shared_total");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &rec, &shared, t] {
      // Every thread resolves some handles itself to race registration.
      Counter& own = reg.counter("scidock_test_thread_" + std::to_string(t) +
                                 "_total");
      HistogramMetric& h = reg.histogram("scidock_test_lat_seconds");
      Gauge& g = reg.gauge("scidock_test_level");
      for (int i = 0; i < kIters; ++i) {
        shared.inc();
        own.inc();
        h.observe(0.001 * i);
        g.set(static_cast<double>(i));
        ScopedSpan span(&rec, "work", "test");
        if (i % 16 == 0) rec.instant("tick", "test");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(shared.value(), static_cast<long long>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter_value("scidock_test_thread_" + std::to_string(t) +
                                "_total"),
              kIters);
  }
  EXPECT_EQ(
      reg.histogram("scidock_test_lat_seconds").count(),
      static_cast<long long>(kThreads) * kIters);

  // Every span id unique; tree well-nested per thread.
  const std::vector<TraceEvent> events = rec.events();
  std::set<std::uint64_t> ids;
  std::size_t begins = 0;
  for (const TraceEvent& e : events) {
    if (e.phase == TraceEvent::Phase::Begin) {
      ++begins;
      EXPECT_TRUE(ids.insert(e.span_id).second) << "duplicate " << e.span_id;
    }
  }
  EXPECT_EQ(begins, static_cast<std::size_t>(kThreads) * kIters);
  const SpanTree tree = build_span_tree(events);
  EXPECT_TRUE(tree.errors.empty());
  EXPECT_EQ(tree.span_count(), begins);
}

// ----------------------------------------------- pool & prov metrics

TEST(PoolMetrics, InstrumentedPoolCountsTasks) {
  MetricsRegistry reg;
  ThreadPool pool(3);
  instrument_thread_pool(pool, reg);
  constexpr std::size_t kTasks = 64;
  std::atomic<int> ran{0};
  pool.parallel_for(kTasks, [&ran](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), static_cast<int>(kTasks));
  EXPECT_EQ(reg.counter_value("scidock_pool_tasks_total"),
            static_cast<long long>(kTasks));
  EXPECT_EQ(reg.histogram("scidock_pool_queue_wait_seconds").count(),
            static_cast<long long>(kTasks));
  EXPECT_EQ(reg.histogram("scidock_pool_task_seconds").count(),
            static_cast<long long>(kTasks));
  EXPECT_GE(reg.gauge_value("scidock_pool_queue_depth"), 1.0);
}

TEST(PoolMetrics, FinishedFiresEvenWhenTasksThrow) {
  MetricsRegistry reg;
  ThreadPool pool(2);
  instrument_thread_pool(pool, reg);
  auto f = pool.submit([]() -> int { throw InvalidStateError("boom"); });
  EXPECT_THROW(f.get(), InvalidStateError);
  // The exception still counts as a finished task with a latency sample.
  EXPECT_EQ(reg.counter_value("scidock_pool_tasks_total"), 1);
  EXPECT_EQ(reg.histogram("scidock_pool_task_seconds").count(), 1);
}

TEST(ProvMetrics, StoreCountsRowsAndQueries) {
  MetricsRegistry reg;
  prov::ProvenanceStore store;
  store.set_metrics(&reg);
  const long long wkfid = store.begin_workflow("m", "d", "/tmp/", 0.0);
  const long long actid = store.register_activity(wkfid, "a", "./cmd", "MAP");
  for (int i = 0; i < 3; ++i) {
    const long long taskid = store.begin_activation(actid, wkfid, 1.0, 0, "w");
    store.end_activation(taskid, 2.0, prov::kStatusFinished, 0, 1);
  }
  store.record_file(wkfid, actid, 1, "f.txt", 10, "/d/");
  store.record_value(1, "feb", -1.0, "");
  store.query("SELECT count(*) FROM hactivation");
  store.end_workflow(wkfid, 3.0);

  EXPECT_EQ(reg.counter_value("scidock_prov_workflow_rows_total"), 1);
  EXPECT_EQ(reg.counter_value("scidock_prov_activity_rows_total"), 1);
  EXPECT_EQ(reg.counter_value("scidock_prov_activation_rows_total"), 3);
  EXPECT_EQ(reg.counter_value("scidock_prov_file_rows_total"), 1);
  EXPECT_EQ(reg.counter_value("scidock_prov_value_rows_total"), 1);
  EXPECT_EQ(reg.counter_value("scidock_prov_queries_total"), 1);

  // Detaching stops the counting but keeps the recorded values.
  store.set_metrics(nullptr);
  store.query("SELECT count(*) FROM hworkflow");
  EXPECT_EQ(reg.counter_value("scidock_prov_queries_total"), 1);
}

}  // namespace
}  // namespace scidock::obs
