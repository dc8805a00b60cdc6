#include "wf/native_executor.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"
#include "util/thread_annotations.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace scidock::wf {

namespace {
double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

NativeExecutor::NativeExecutor(const Pipeline& pipeline,
                               vfs::SharedFileSystem& fs,
                               prov::ProvenanceStore& prov,
                               NativeExecutorOptions options)
    : pipeline_(pipeline), fs_(fs), prov_(prov), options_(std::move(options)) {
  for (const Stage& st : pipeline.stages()) {
    SCIDOCK_REQUIRE(static_cast<bool>(st.impl),
                    "stage '" + st.tag + "' has no native implementation");
  }
}

NativeReport NativeExecutor::run(const Relation& input,
                                 const std::string& workflow_tag) {
  const double t0 = wall_now();
  const obs::ExecutorCounters counters =
      obs::executor_counters(options_.obs.metrics);
  obs::ScopedSpan run_span(options_.obs.trace, "native-run", "executor",
                           {{"workflow", workflow_tag}});
  const long long wkfid =
      prov_.begin_workflow(workflow_tag, "native execution", options_.expdir, 0.0);
  std::map<std::string, long long> actids;
  for (const Stage& st : pipeline_.stages()) {
    actids[st.tag] = prov_.register_activity(wkfid, st.tag, "./experiment.cmd",
                                             std::string(to_string(st.op)));
  }

  // SciCumulus relations are file-backed (Figure 2: input_1.txt); stage
  // the input relation on the shared FS and record it in provenance so
  // Query-2-style lookups can find it.
  {
    const std::string rel_path = options_.expdir + "/relations/input_1.txt";
    const std::string text = input.to_file_text();
    const std::size_t size = text.size();
    fs_.write(rel_path, text, 0.0, workflow_tag);
    const auto [dir, name] = vfs::split_path(rel_path);
    prov_.record_file(wkfid, 0, 0, name, size, dir);
  }

  NativeReport report;
  Mutex report_mutex{"wf.native.report"};
  std::vector<std::vector<Tuple>> final_tuples(input.size());
  // While tasks run, `report` is only touched under report_mutex; each
  // final_tuples bucket is written by exactly one task and read after the
  // parallel_for join.

  Rng root_rng(options_.seed);

  auto process_tuple = [&](std::size_t tuple_idx) {
    // Each tuple owns a deterministic stream regardless of scheduling.
    Rng tuple_rng = root_rng.fork("tuple-" + std::to_string(tuple_idx));
    std::vector<Tuple> frontier{input.tuples()[tuple_idx]};
    std::string stage_tag = pipeline_.stages().front().tag;

    while (stage_tag != kEndOfPipeline && !frontier.empty()) {
      const Stage& st = pipeline_.stage(stage_tag);
      std::vector<Tuple> produced;
      for (const Tuple& in_tuple : frontier) {
        bool done = false;
        std::string last_error;
        for (int attempt = 1; attempt <= options_.max_attempts && !done; ++attempt) {
          ActivationContext ctx;
          ctx.fs = &fs_;
          ctx.prov = &prov_;
          ctx.obs = options_.obs;
          ctx.wkfid = wkfid;
          ctx.actid = actids[st.tag];
          ctx.expdir = options_.expdir;
          ctx.rng = tuple_rng.fork(st.tag + "#" + std::to_string(attempt));
          const double start = wall_now() - t0;
          ctx.now = start;
          ctx.taskid = prov_.begin_activation(
              ctx.actid, wkfid, start, /*vmid=*/0,
              in_tuple.get("pair").value_or(""));
          obs::ScopedSpan span(
              options_.obs.trace, st.tag, "activation",
              {{"pair", in_tuple.get("pair").value_or("")},
               {"attempt", std::to_string(attempt)}});
          if (counters.started != nullptr) {
            counters.started->inc();
            if (attempt > 1) counters.retried->inc();
          }
          auto notify = [&](bool success) {
            if (!options_.monitor) return;
            try {
              options_.monitor(ActivationEvent{
                  st.tag, in_tuple.get("pair").value_or(""), success, attempt,
                  wall_now() - t0 - start});
            } catch (...) {
              // A broken monitor must not take the workflow down.
            }
          };
          if (options_.fault_injector) {
            const InjectedFault fault =
                options_.fault_injector(st.tag, in_tuple, attempt);
            if (fault == InjectedFault::Hang) {
              // Looping state: the watchdog aborts the activation. The
              // attempt is burned and the abort is visible in provenance
              // (the record the paper's authors used to diagnose Hg hangs).
              prov_.end_activation(ctx.taskid, wall_now() - t0,
                                   prov::kStatusAborted, 1, attempt);
              last_error = "injected hang at " + st.tag + " (watchdog abort)";
              {
                MutexLock lock(report_mutex);
                ++report.activations_hung;
              }
              if (counters.aborted != nullptr) counters.aborted->inc();
              span.set_arg("status", std::string(prov::kStatusAborted));
              notify(false);
              continue;
            }
            if (fault == InjectedFault::Failure) {
              prov_.end_activation(ctx.taskid, wall_now() - t0,
                                   prov::kStatusFailed, 1, attempt);
              last_error = "injected failure at " + st.tag;
              {
                MutexLock lock(report_mutex);
                ++report.activations_failed;
              }
              if (counters.failed != nullptr) counters.failed->inc();
              span.set_arg("status", std::string(prov::kStatusFailed));
              notify(false);
              continue;
            }
          }
          try {
            std::vector<Tuple> out = st.impl(in_tuple, ctx);
            prov_.end_activation(ctx.taskid, wall_now() - t0,
                                 prov::kStatusFinished, 0, attempt);
            const double elapsed = wall_now() - t0 - start;
            {
              MutexLock lock(report_mutex);
              ++report.activations_finished;
              report.per_activity_seconds[st.tag].add(elapsed);
            }
            if (counters.finished != nullptr) {
              counters.finished->inc();
              counters.activation_seconds->observe(elapsed);
            }
            span.set_arg("status", std::string(prov::kStatusFinished));
            notify(true);
            for (Tuple& o : out) produced.push_back(std::move(o));
            done = true;
          } catch (const Error& e) {
            prov_.end_activation(ctx.taskid, wall_now() - t0,
                                 prov::kStatusFailed, 1, attempt);
            last_error = e.what();
            {
              MutexLock lock(report_mutex);
              ++report.activations_failed;
            }
            if (counters.failed != nullptr) counters.failed->inc();
            span.set_arg("status", std::string(prov::kStatusFailed));
            notify(false);
          }
        }
        if (!done) {
          if (counters.tuples_lost != nullptr) counters.tuples_lost->inc();
          MutexLock lock(report_mutex);
          ++report.tuples_lost;
          report.failure_messages.push_back(last_error);
          SCIDOCK_LOG_WARN("tuple %zu lost at stage %s: %s", tuple_idx,
                           st.tag.c_str(), last_error.c_str());
        }
      }
      if (produced.empty()) {
        frontier.clear();  // filtered out or lost: nothing reaches the output
        break;
      }
      // Route on the first produced tuple (SciDock routing is per-pair).
      stage_tag = pipeline_.next_stage(st.tag, produced.front());
      frontier = std::move(produced);
    }
    // Only tuples that traversed the whole chain appear in the output.
    if (stage_tag == kEndOfPipeline) {
      if (counters.tuples_completed != nullptr) {
        counters.tuples_completed->inc();
      }
      final_tuples[tuple_idx] = std::move(frontier);
    }
  };

  if (options_.threads > 1) {
    ThreadPool pool(static_cast<std::size_t>(options_.threads));
    if (options_.pool_task_hook) pool.set_task_hook(options_.pool_task_hook);
    if (options_.obs.metrics != nullptr) {
      obs::instrument_thread_pool(pool, *options_.obs.metrics);
    }
    pool.parallel_for(input.size(), process_tuple);
  } else {
    for (std::size_t i = 0; i < input.size(); ++i) process_tuple(i);
  }

  // The output schema is the union of every completed tuple's fields, in
  // first-seen order: branches of a routed pipeline (AD4's dpf_file,
  // Vina's conf_file) carry different fields, and a tuple lacking one of
  // them still belongs in the output, with an empty cell.
  std::vector<std::string> fields;
  for (const auto& bucket : final_tuples) {
    for (const Tuple& t : bucket) {
      for (const auto& [k, v] : t.fields()) {
        if (std::find(fields.begin(), fields.end(), k) == fields.end()) {
          fields.push_back(k);
        }
      }
    }
  }
  report.output = Relation(fields);
  for (auto& bucket : final_tuples) {
    for (Tuple& t : bucket) {
      for (const std::string& f : fields) {
        if (!t.has(f)) t.set(f, "");
      }
      report.output.add(std::move(t));
    }
  }

  // The final output relation also lands on the shared FS.
  {
    const std::string rel_path = options_.expdir + "/relations/output_1.txt";
    const std::string text = report.output.to_file_text();
    const std::size_t size = text.size();
    fs_.write(rel_path, text, wall_now() - t0, workflow_tag);
    const auto [dir, name] = vfs::split_path(rel_path);
    prov_.record_file(wkfid, 0, 0, name, size, dir);
  }

  report.wall_seconds = wall_now() - t0;
  prov_.end_workflow(wkfid, report.wall_seconds);
  return report;
}

}  // namespace scidock::wf
