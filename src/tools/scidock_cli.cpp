// scidock_cli — command-line front end for the library.
//
//   scidock_cli dock <RECEPTOR> <LIGAND> [--engine ad4|vina]
//   scidock_cli screen [--receptors N] [--threads N] [--engine auto|ad4|vina]
//   scidock_cli sweep [--pairs N] [--engine ad4|vina] [--cores 2,4,...]
//   scidock_cli query "<SQL>" [--pairs N] [--prov-shards N] [--prov-dir DIR]
//   scidock_cli spec
//   scidock_cli prov-export [--pairs N] [--prov-shards N] [--prov-dir DIR]
//
// `dock` and `screen` run the real docking engines natively; `sweep`,
// `query` and `prov-export` replay on the cloud simulator with full
// provenance capture. Every `screen` checks conservation (each pair is in
// the output or recorded as lost) and exits 1 on a violation.
//
// `screen` and `sweep` accept --trace-out FILE (Chrome chrome://tracing
// JSON) and --metrics-out FILE (Prometheus text). Both outputs are
// self-checked before writing: the trace must round-trip through the
// bundled parser with a well-nested span tree, and screen's activation
// counters must reconcile exactly with SQL over the PROV-Wf store.
//
// `query` and `prov-export` accept --prov-shards N (a store split into N
// shards; a query scans them all) and --prov-dir DIR (write-ahead-logged
// store; the run is then replayed from the WAL into a second store and
// the two content digests must match before the command's output is
// served — a crash-recovery self-check on every invocation).
//
// Numeric flags (--receptors, --threads, --pairs, --prov-shards and each
// --cores entry) must be positive integers; anything else prints the
// error and the usage and exits 2 before any work starts.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/invariants.hpp"
#include "data/table2.hpp"
#include "lint/sync_lint.hpp"
#include "dock/autodock4.hpp"
#include "dock/dlg.hpp"
#include "dock/vina.hpp"
#include "mol/prepare.hpp"
#include "obs/obs.hpp"
#include "scidock/analysis.hpp"
#include "scidock/experiment.hpp"
#include "util/error.hpp"
#include "util/lockdep.hpp"
#include "util/strings.hpp"
#include "vfs/vfs.hpp"
#include "wf/relational.hpp"
#include "wf/spec.hpp"

namespace {

using namespace scidock;

int usage() {
  std::fprintf(stderr,
               "usage: scidock_cli <command> [options]\n"
               "  dock <RECEPTOR> <LIGAND> [--engine ad4|vina]\n"
               "  screen [--receptors N] [--threads N] [--engine auto|ad4|vina]\n"
               "  sweep [--pairs N] [--engine ad4|vina] [--cores 2,4,8,...]\n"
               "  query \"<SQL>\" [--pairs N] [--prov-shards N] [--prov-dir DIR]\n"
               "  spec\n"
               "  prov-export [--pairs N] [--prov-shards N] [--prov-dir DIR]\n"
               "screen/sweep also take:\n"
               "  --trace-out FILE    Chrome chrome://tracing JSON\n"
               "  --metrics-out FILE  Prometheus text metrics\n"
               "  --sync-report       print the lockdep report after the run\n"
               "                      (needs -DSCIDOCK_SYNC_ANALYSIS=ON; exit 1\n"
               "                      on any lockdep error)\n");
  return 2;
}

/// Value of `--name` in argv, or fallback.
std::string flag(const std::vector<std::string>& args, const std::string& name,
                 const std::string& fallback) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "--" + name) return args[i + 1];
  }
  return fallback;
}

/// A malformed command line; main prints it with the usage and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `text` as an integer > 0; throws UsageError naming `--name` otherwise.
int positive_int(const std::string& text, const std::string& name) {
  long long value = 0;
  try {
    value = parse_int(text, name);
  } catch (const ParseError&) {
    // value stays 0 and is rejected below, with the flag's name.
  }
  if (value <= 0 || value > INT_MAX) {
    throw UsageError("--" + name + " needs a positive integer, got '" + text +
                     "'");
  }
  return static_cast<int>(value);
}

/// Value of `--name` (or fallback) as an integer > 0; see positive_int.
int positive_flag(const std::vector<std::string>& args, const std::string& name,
                  const std::string& fallback) {
  return positive_int(flag(args, name, fallback), name);
}

/// Presence of a valueless `--name` switch.
bool has_switch(const std::vector<std::string>& args, const std::string& name) {
  for (const std::string& a : args) {
    if (a == "--" + name) return true;
  }
  return false;
}

/// Print lockdep's report when --sync-report was passed; mirrors its
/// counters into the metrics sink (if any) first so the scidock_lockdep_*
/// series land in --metrics-out. Returns non-zero on any error-severity
/// lockdep hazard.
int maybe_sync_report(const std::vector<std::string>& args,
                      obs::MetricsRegistry* metrics) {
  if (!has_switch(args, "sync-report")) return 0;
  if (metrics != nullptr) obs::publish_sync_metrics(*metrics);
  std::printf("%s", lockdep::format_report().c_str());
  const lint::Report report = lint::sync_report();
  if (!report.clean()) std::printf("%s", report.format().c_str());
  return lockdep::clean() ? 0 : 1;
}

/// Observability sinks requested on the command line. Null members mean
/// the corresponding flag was absent (zero instrumentation cost).
struct ObsSinks {
  std::string trace_path;
  std::string metrics_path;
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<obs::MetricsRegistry> metrics;

  obs::Observability view() { return {trace.get(), metrics.get()}; }
};

ObsSinks obs_sinks(const std::vector<std::string>& args) {
  ObsSinks s;
  s.trace_path = flag(args, "trace-out", "");
  s.metrics_path = flag(args, "metrics-out", "");
  if (!s.trace_path.empty()) s.trace = std::make_unique<obs::TraceRecorder>();
  if (!s.metrics_path.empty()) {
    s.metrics = std::make_unique<obs::MetricsRegistry>();
  }
  return s;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "scidock_cli: cannot open %s\n", path.c_str());
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return written == text.size();
}

/// Validate and write the requested observability outputs. The trace is
/// proven Chrome-loadable by parsing it back and checking the span tree
/// is well-nested before it touches disk.
int flush_obs(ObsSinks& s) {
  if (s.trace != nullptr) {
    const obs::SpanTree tree = obs::build_span_tree(s.trace->events());
    if (!tree.errors.empty()) {
      for (const std::string& e : tree.errors) {
        std::fprintf(stderr, "scidock_cli: trace self-check: %s\n", e.c_str());
      }
      return 1;
    }
    const std::string json = s.trace->to_chrome_json();
    if (obs::parse_chrome_trace(json).size() != s.trace->event_count()) {
      std::fprintf(stderr,
                   "scidock_cli: trace self-check: round-trip lost events\n");
      return 1;
    }
    if (!write_file(s.trace_path, json)) return 1;
    std::printf("trace: %zu events (%zu spans) -> %s\n",
                s.trace->event_count(), tree.span_count(),
                s.trace_path.c_str());
  }
  if (s.metrics != nullptr) {
    if (!write_file(s.metrics_path, s.metrics->to_prometheus_text())) return 1;
    std::printf("metrics: %zu series -> %s\n", s.metrics->series_count(),
                s.metrics_path.c_str());
  }
  return 0;
}

core::EngineMode engine_mode(const std::string& name) {
  if (name == "ad4") return core::EngineMode::ForceAd4;
  if (name == "vina") return core::EngineMode::ForceVina;
  return core::EngineMode::Adaptive;
}

int cmd_dock(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string engine = flag(args, "engine", "vina");
  std::printf("docking %s x %s with %s\n", args[0].c_str(), args[1].c_str(),
              engine.c_str());
  const mol::PreparedReceptor receptor =
      mol::prepare_receptor(data::make_receptor(args[0]));
  const mol::PreparedLigand ligand =
      mol::prepare_ligand(data::make_ligand(args[1]));
  const dock::GridBox box =
      dock::GridBox::around(receptor.molecule.center(), 10.0, 0.55);
  Rng rng(fnv1a64(args[0] + args[1]));
  dock::DockingResult result;
  if (engine == "ad4") {
    dock::Autodock4Engine ad4{dock::DockingParameterFile{}};
    result = ad4.dock(receptor, ligand, box, rng);
    std::printf("%s", dock::write_dlg(result).c_str());
  } else {
    dock::VinaEngine vina{dock::VinaConfig{}};
    result = vina.dock(receptor, ligand, box, rng);
    std::printf("%s", dock::write_vina_log(result).c_str());
  }
  return result.favorable() ? 0 : 1;
}

int cmd_screen(const std::vector<std::string>& args) {
  const int n = positive_flag(args, "receptors", "24");
  const int threads = positive_flag(args, "threads", "2");
  core::ScidockOptions options;
  options.engine_mode = engine_mode(flag(args, "engine", "auto"));
  const std::vector<std::string> receptors(
      data::table2_receptors().begin(),
      data::table2_receptors().begin() +
          std::min<std::size_t>(static_cast<std::size_t>(n),
                                data::table2_receptors().size()));
  core::Experiment exp =
      core::make_experiment(receptors, data::table3_ligands(), 0, options);
  ObsSinks sinks = obs_sinks(args);
  const wf::NativeReport report =
      core::run_native(exp, threads, "SciDock", sinks.view());
  std::printf("%zu pairs docked in %.1f s (%lld lost)\n",
              report.output.size(), report.wall_seconds, report.tuples_lost);

  // Prove the run before reporting success: every pair is either in the
  // output or recorded as lost, and with metrics on, the counters match
  // the provenance store (the paper's provenance is the ground truth).
  chaos::InvariantChecker checker;
  wf::NativeExecutorOptions defaults;  // run_native used these defaults
  const chaos::RunSummary run =
      chaos::summarize(report, defaults, exp.pairs.size());
  checker.check_conservation(run);
  if (sinks.metrics != nullptr) {
    checker.check_metrics(run, *sinks.metrics, *exp.prov, "SciDock");
  }
  if (!checker.ok()) {
    std::fprintf(stderr, "scidock_cli: screen self-check failed:\n%s",
                 checker.to_string().c_str());
    return 1;
  }
  if (sinks.metrics != nullptr) {
    std::printf("metrics reconcile with provenance (%lld activations)\n",
                sinks.metrics->counter_value(obs::kActivationsStarted));
  }
  if (const int rc = maybe_sync_report(args, sinks.metrics.get()); rc != 0) {
    return rc;
  }
  if (const int rc = flush_obs(sinks); rc != 0) return rc;

  // Summarise with an SRQuery over the output relation.
  const wf::Relation summary =
      wf::query_relation(report.output, core::screen_summary_query());
  std::printf("\n%-8s %6s %10s %10s\n", "ligand", "pairs", "favorable",
              "best FEB");
  for (const wf::Tuple& t : summary.tuples()) {
    std::printf("%-8s %6s %10s %10s\n", t.require("ligand").c_str(),
                t.require("pairs").c_str(), t.require("favorable").c_str(),
                t.require("best_feb").c_str());
  }
  return 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  const int pairs = positive_flag(args, "pairs", "9996");
  std::vector<int> core_counts;
  for (const std::string& spec :
       split(flag(args, "cores", "2,4,8,16,32,64,128"), ',')) {
    core_counts.push_back(positive_int(spec, "cores"));
  }
  core::ScidockOptions options;
  options.engine_mode = engine_mode(flag(args, "engine", "ad4"));
  core::Experiment exp = core::make_experiment(
      data::table2_receptors(), data::table2_ligands(),
      static_cast<std::size_t>(pairs), options);
  ObsSinks sinks = obs_sinks(args);
  std::printf("%6s %14s %10s\n", "cores", "TET", "cost");
  for (std::size_t i = 0; i < core_counts.size(); ++i) {
    const int cores = core_counts[i];
    wf::SimExecutorOptions sim_options;
    // Metrics accumulate over the whole sweep; the trace holds only the
    // final point (each sim run restarts simulated time at zero, so
    // stacking several runs on one timeline would interleave them).
    sim_options.obs.metrics = sinks.metrics.get();
    if (i + 1 == core_counts.size()) sim_options.obs.trace = sinks.trace.get();
    const wf::SimReport r =
        core::run_simulated(exp, cores, nullptr, std::move(sim_options));
    std::printf("%6d %14s %9.0f$\n", cores,
                human_duration(r.total_execution_time_s).c_str(),
                r.cloud_cost_usd);
  }
  if (const int rc = maybe_sync_report(args, sinks.metrics.get()); rc != 0) {
    return rc;
  }
  return flush_obs(sinks);
}

/// Run a small simulated screening with provenance, then apply `fn`.
/// --prov-shards selects a sharded store; --prov-dir additionally logs
/// every record to a WAL and proves the run recoverable (replay into a
/// second store, digests must match) before `fn` sees the data.
template <typename F>
int with_provenance(const std::vector<std::string>& args, F&& fn) {
  const int pairs = positive_flag(args, "pairs", "200");
  const int shards = positive_flag(args, "prov-shards", "1");
  const std::string prov_dir = flag(args, "prov-dir", "");
  core::Experiment exp = core::make_experiment(
      data::table2_receptors(), data::table2_ligands(),
      static_cast<std::size_t>(pairs), {});
  if (shards == 1 && prov_dir.empty()) {
    prov::ProvenanceStore store;
    core::run_simulated(exp, 16, &store);
    return fn(store);
  }

  vfs::SharedFileSystem fs;
  prov::ProvenanceStoreOptions options;
  options.shard_count = static_cast<std::size_t>(shards);
  options.wal_dir = prov_dir.empty() ? "/prov" : prov_dir;
  if (!prov_dir.empty()) options.vfs = &fs;
  std::string digest;
  {
    prov::ProvenanceStore store(options);
    core::run_simulated(exp, 16, &store);
    if (!store.durable()) return fn(store);
    store.flush();
    digest = store.content_digest();
    // Destruction drains the group-commit flusher; the WAL now holds the
    // complete run.
  }
  prov::ProvenanceStore reopened(options);
  if (reopened.content_digest() != digest) {
    std::fprintf(stderr,
                 "scidock_cli: provenance recovery self-check failed: "
                 "replayed store differs from the live one\n");
    return 1;
  }
  const prov::RecoveryReport& rec = reopened.last_recovery();
  std::fprintf(stderr,
               "prov: %zu shard(s), WAL %s: replayed %zu record(s) from %zu "
               "segment(s); recovery self-check passed\n",
               reopened.shard_count(), options.wal_dir.c_str(), rec.records,
               rec.segments);
  return fn(reopened);
}

int cmd_query(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  return with_provenance(args, [&](prov::ProvenanceStore& store) {
    std::printf("%s", store.query(args[0]).to_text().c_str());
    return 0;
  });
}

int cmd_prov_export(const std::vector<std::string>& args) {
  return with_provenance(args, [](prov::ProvenanceStore& store) {
    std::printf("%s", store.export_prov_n().c_str());
    return 0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (command == "dock") return cmd_dock(args);
    if (command == "screen") return cmd_screen(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "query") return cmd_query(args);
    if (command == "prov-export") return cmd_prov_export(args);
    if (command == "spec") {
      std::printf("%s", wf::save_spec(core::scidock_workflow_def()).c_str());
      return 0;
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "scidock_cli: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scidock_cli: %s\n", e.what());
    return 1;
  }
  return usage();
}
