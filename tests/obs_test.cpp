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
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "chaos/chaos.hpp"
#include "chaos/invariants.hpp"
#include "cloud/cost_model.hpp"
#include "data/table2.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "prov/prov.hpp"
#include "scidock/experiment.hpp"
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

TEST(Trace, RecordsEveryEventFromFourThreads) {
  // Every recording entry point, with string and integer args, from four
  // threads at once. events() must hand back each event as recorded, and
  // the Chrome JSON must carry all of it.
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  constexpr long long kRow = 1'000'000;  ///< explicit rows: kRow + thread
  TraceRecorder rec;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      const std::string ts = std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        {
          ScopedSpan span(&rec, "work-" + ts, "test",
                          {{"thread", ts}, {"iter", std::to_string(i)}});
          span.set_arg("status", "done");
        }
        const std::uint64_t id =
            rec.begin_span("raw", "test", {{"k", "v \"quoted\""}});
        rec.end_span(id, {{"n", std::to_string(-i)}});
        rec.complete_span("sim", "activation", 1000.0 * i, 0.5, kRow + t,
                          {{"tuple", static_cast<long long>(i)},
                           {"status", "FINISHED"},
                           {"attempt", -1LL - t}});
        rec.instant("tick", "fault", 1000.0 * i + 0.25, kRow + t,
                    {{"max", std::numeric_limits<long long>::max()}});
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const std::vector<TraceEvent> events = rec.events();
  constexpr std::size_t kPerIter = 6;
  ASSERT_EQ(events.size(), kThreads * kIters * kPerIter);
  ASSERT_EQ(rec.event_count(), events.size());
  // Sorted by (ts, seq), and seq numbers every record exactly once.
  std::vector<std::uint64_t> seqs;
  for (std::size_t i = 0; i < events.size(); ++i) {
    seqs.push_back(events[i].seq);
    if (i > 0) {
      const TraceEvent& a = events[i - 1];
      const TraceEvent& b = events[i];
      ASSERT_TRUE(a.ts_us < b.ts_us || (a.ts_us == b.ts_us && a.seq < b.seq))
          << i;
    }
  }
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i < seqs.size(); ++i) ASSERT_EQ(seqs[i], i);

  // Per row, in seq (= call) order, the events are exactly what was
  // recorded. Native rows hold the spans, rows kRow + t the explicit ones.
  std::map<long long, std::vector<const TraceEvent*>> rows;
  for (const TraceEvent& e : events) rows[e.tid].push_back(&e);
  ASSERT_EQ(rows.size(), 2u * kThreads);
  for (auto& [tid, row] : rows) {
    std::sort(row.begin(), row.end(), [](const auto* a, const auto* b) {
      return a->seq < b->seq;
    });
    if (tid >= kRow) {
      const long long t = tid - kRow;
      ASSERT_EQ(row.size(), 2u * kIters);
      for (int i = 0; i < kIters; ++i) {
        const TraceEvent& sim = *row[2 * i];
        EXPECT_EQ(sim.name, "sim");
        EXPECT_EQ(sim.category, "activation");
        EXPECT_EQ(sim.phase, TraceEvent::Phase::Complete);
        EXPECT_DOUBLE_EQ(sim.ts_us, 1000.0 * i);
        EXPECT_DOUBLE_EQ(sim.dur_us, 0.5);
        EXPECT_EQ(sim.args, (TraceArgs{{"tuple", std::to_string(i)},
                                       {"status", "FINISHED"},
                                       {"attempt", std::to_string(-1 - t)}}));
        const TraceEvent& tick = *row[2 * i + 1];
        EXPECT_EQ(tick.name, "tick");
        EXPECT_EQ(tick.category, "fault");
        EXPECT_EQ(tick.phase, TraceEvent::Phase::Instant);
        EXPECT_EQ(tick.span_id, 0u);
        EXPECT_EQ(tick.args, (TraceArgs{{"max", "9223372036854775807"}}));
      }
      continue;
    }
    ASSERT_EQ(row.size(), 4u * kIters);
    const std::string t = row[0]->name.substr(std::string("work-").size());
    for (int i = 0; i < kIters; ++i) {
      const TraceEvent& begin = *row[4 * i];
      const TraceEvent& end = *row[4 * i + 1];
      EXPECT_EQ(begin.name, "work-" + t);
      EXPECT_EQ(begin.category, "test");
      EXPECT_EQ(begin.phase, TraceEvent::Phase::Begin);
      EXPECT_EQ(begin.args,
                (TraceArgs{{"thread", t}, {"iter", std::to_string(i)}}));
      EXPECT_EQ(end.phase, TraceEvent::Phase::End);
      EXPECT_EQ(end.span_id, begin.span_id);
      EXPECT_EQ(end.args, (TraceArgs{{"status", "done"}}));
      const TraceEvent& raw = *row[4 * i + 2];
      EXPECT_EQ(raw.name, "raw");
      EXPECT_EQ(raw.args, (TraceArgs{{"k", "v \"quoted\""}}));
      EXPECT_EQ(row[4 * i + 3]->span_id, raw.span_id);
      EXPECT_EQ(row[4 * i + 3]->args, (TraceArgs{{"n", std::to_string(-i)}}));
    }
  }
  EXPECT_TRUE(build_span_tree(events).errors.empty());

  const std::vector<TraceEvent> parsed =
      parse_chrome_trace(rec.to_chrome_json());
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].name, events[i].name) << i;
    EXPECT_EQ(parsed[i].category, events[i].category) << i;
    EXPECT_EQ(parsed[i].phase, events[i].phase) << i;
    EXPECT_NEAR(parsed[i].ts_us, events[i].ts_us, 1e-3) << i;
    EXPECT_NEAR(parsed[i].dur_us, events[i].dur_us, 1e-3) << i;
    EXPECT_EQ(parsed[i].tid, events[i].tid) << i;
    EXPECT_EQ(parsed[i].span_id, events[i].span_id) << i;
    EXPECT_EQ(parsed[i].args, events[i].args) << i;
  }
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
  prov::ProvenanceStore store;
  wf::SimulatedExecutor(p, obs_cost_model(), opts).run(input, &store, "golden");

  const SpanTree tree = build_span_tree(trace.events());
  ASSERT_TRUE(tree.errors.empty()) << tree.errors.front();
  const std::vector<SpanNode> acts = activation_spans(tree);

  // Each hactivation row, keyed by (workload, activity, attempt), which
  // names one attempt.
  struct Attempt {
    long long vmid;
    double start, end;
    std::string status;
  };
  std::map<std::tuple<std::string, std::string, std::string>, Attempt> rows;
  for (const sql::Row& r :
       store
           .query("SELECT t.workload, a.tag, t.attempts, t.vmid, "
                  "t.starttime, t.endtime, t.status "
                  "FROM hactivity a, hactivation t WHERE a.actid = t.actid")
           .rows) {
    rows[{r[0].as_string(), r[1].as_string(), r[2].to_string()}] =
        Attempt{r[3].as_int(), r[4].as_double(), r[5].as_double(),
                r[6].as_string()};
  }
  ASSERT_EQ(acts.size(), rows.size());

  // Simulated spans are stamped with simulated seconds x 1e6 on the VM's
  // trace row; each one matches its attempt's row field by field.
  for (const SpanNode& span : acts) {
    const auto it = rows.find({"pair-" + arg_value(span, "tuple"), span.name,
                               arg_value(span, "attempt")});
    ASSERT_TRUE(it != rows.end()) << span.name;
    const Attempt& row = it->second;
    EXPECT_EQ(span.tid, row.vmid) << span.name;
    EXPECT_DOUBLE_EQ(span.start_us, row.start * 1e6) << span.name;
    EXPECT_DOUBLE_EQ(span.end_us, row.end * 1e6) << span.name;
    EXPECT_EQ(arg_value(span, "status"), row.status) << span.name;
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

TEST(GoldenTrace, RecordingDoesNotPerturbTheSimulation) {
  // The recorder only appends events and bumps counters: the same seed
  // must give the same schedule with and without it attached.
  const core::Experiment exp = core::make_experiment(
      data::table2_receptors(), data::table2_ligands(), 500);
  for (const int workers : {2, 4, 8}) {
    prov::ProvenanceStore plain_store, recorded_store;
    const wf::SimReport plain = core::run_simulated(exp, workers, &plain_store);
    TraceRecorder trace;
    MetricsRegistry metrics;
    wf::SimExecutorOptions opts;
    opts.obs = {&trace, &metrics};
    const wf::SimReport recorded = core::run_simulated(
        exp, workers, &recorded_store, std::move(opts));
    ASSERT_GT(trace.event_count(), 0u);
    EXPECT_EQ(recorded.total_execution_time_s, plain.total_execution_time_s)
        << workers;
    EXPECT_EQ(recorded.scheduling_overhead_s, plain.scheduling_overhead_s)
        << workers;
    // Every attempt's row, timestamps to the last bit, is the same.
    EXPECT_EQ(recorded_store.content_digest(), plain_store.content_digest())
        << workers;
  }
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

    EXPECT_EQ(report.max_attempt,
              store.query("SELECT max(attempts) FROM hactivation")
                  .rows[0][0].as_int())
        << "seed=" << seed;
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

    EXPECT_EQ(report.max_attempt,
              store.query("SELECT max(attempts) FROM hactivation")
                  .rows[0][0].as_int())
        << "seed=" << seed;
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
  const sql::ResultSet victim = store.query(
      "SELECT taskid FROM hactivation WHERE status = 'FINISHED' "
      "ORDER BY taskid LIMIT 1");
  ASSERT_EQ(victim.rows.size(), 1u);
  const sql::ResultSet dropped = store.query(
      "DELETE FROM hactivation WHERE taskid = " + victim.rows[0][0].to_string());
  ASSERT_EQ(dropped.rows[0][0].as_int(), 1);
  InvariantChecker after;
  EXPECT_FALSE(after.check_metrics(summary, metrics, store, "tamper"));
  EXPECT_FALSE(after.violations().empty());
}

TEST(Reconciliation, QuotedWorkflowTagReconciles) {
  // A quote in the tag is part of the SQL literal the checks build.
  const Pipeline p = obs_pipeline();
  const Relation input = obs_input(8);
  MetricsRegistry metrics;
  wf::SimExecutorOptions opts;
  opts.fleet = wf::m3_fleet_for_cores(4);
  opts.seed = 5;
  opts.obs.metrics = &metrics;
  prov::ProvenanceStore store;
  const wf::SimReport report = wf::SimulatedExecutor(p, obs_cost_model(), opts)
                                   .run(input, &store, "o'brien");
  const RunSummary summary = chaos::summarize(report, opts, input.size());
  InvariantChecker checker;
  EXPECT_TRUE(checker.check_metrics(summary, metrics, store, "o'brien"))
      << checker.to_string();
  EXPECT_TRUE(checker.check_provenance(summary, store, "o'brien",
                                       /*chain_length=*/2))
      << checker.to_string();
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
