#include "wf/native_executor.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"
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

  // SciCumulus relations are file-backed (Figure 2: input_1.txt); the
  // input and output relations land on the shared FS and in provenance so
  // Query-2-style lookups can find them.
  const auto stage_relation = [&](const std::string& file, const Relation& rel,
                                  double now) {
    const std::string dir = options_.expdir + "/relations/";
    const std::string text = rel.to_file_text();
    fs_.write(dir + file, text, now, workflow_tag);
    prov_.record_file(wkfid, 0, 0, file, text.size(), dir);
  };
  stage_relation("input_1.txt", input, 0.0);

  // Each input tuple tallies into its own slot, written by exactly one
  // task; the slots merge in tuple order after the parallel_for join.
  struct TupleSlot {
    RunTally tally;
    std::vector<std::string> failure_messages;
    std::vector<Tuple> output;
  };
  std::vector<TupleSlot> slots(input.size());

  Rng root_rng(options_.seed);

  auto process_tuple = [&](std::size_t tuple_idx) {
    TupleSlot& slot = slots[tuple_idx];
    // Each tuple owns a deterministic stream regardless of scheduling.
    Rng tuple_rng = root_rng.fork("tuple-" + std::to_string(tuple_idx));
    std::vector<Tuple> frontier{input.tuples()[tuple_idx]};
    std::string stage_tag = pipeline_.stages().front().tag;

    while (stage_tag != kEndOfPipeline && !frontier.empty()) {
      const Stage& st = pipeline_.stage(stage_tag);
      std::vector<Tuple> produced;
      for (const Tuple& in_tuple : frontier) {
        const std::string pair = in_tuple.get("pair").value_or("");
        bool done = false;
        std::string last_error;
        for (int attempt = 1; attempt <= options_.max_attempts && !done; ++attempt) {
          const double start = wall_now() - t0;
          const long long actid = actids[st.tag];
          ActivationContext ctx{
              .fs = &fs_, .prov = &prov_, .wkfid = wkfid, .actid = actid,
              .taskid = prov_.begin_activation(actid, wkfid, start,
                                               /*vmid=*/0, pair),
              .expdir = options_.expdir, .now = start,
              .rng = tuple_rng.fork(st.tag + "#" + std::to_string(attempt)),
              .obs = options_.obs};
          obs::ScopedSpan span(options_.obs.trace, st.tag, "activation",
                               {{"pair", pair},
                                {"attempt", std::to_string(attempt)}});
          // An injected Hang is the looping state the watchdog aborts; the
          // abort is visible in provenance (the record the paper's authors
          // used to diagnose the Hg hangs). Every fault burns the attempt.
          const InjectedFault fault =
              options_.fault_injector
                  ? options_.fault_injector(st.tag, in_tuple, attempt)
                  : InjectedFault::None;
          std::string_view status = prov::kStatusFinished;
          std::vector<Tuple> out;
          if (fault == InjectedFault::Hang) {
            status = prov::kStatusAborted;
            last_error = "injected hang at " + st.tag + " (watchdog abort)";
          } else if (fault == InjectedFault::Failure) {
            status = prov::kStatusFailed;
            last_error = "injected failure at " + st.tag;
          } else {
            // Whatever a stage throws fails this attempt only: a
            // std::stoi on a malformed field must not end the run.
            try {
              out = st.impl(in_tuple, ctx);
            } catch (const std::exception& e) {
              status = prov::kStatusFailed;
              last_error = e.what();
            } catch (...) {
              status = prov::kStatusFailed;
              last_error = "non-standard exception at " + st.tag;
            }
          }
          done = status == prov::kStatusFinished;
          const double end = wall_now() - t0;
          prov_.end_activation(ctx.taskid, end, status, done ? 0 : 1, attempt);
          slot.tally.close_attempt(st.tag, status, attempt, end - start,
                                   counters);
          span.set_arg("status", std::string(status));
          if (options_.monitor) {
            try {
              options_.monitor(ActivationEvent{st.tag, pair, done, attempt,
                                               end - start});
            } catch (...) {
              // A broken monitor must not take the workflow down.
            }
          }
          for (Tuple& o : out) produced.push_back(std::move(o));
        }
        if (!done) {
          slot.tally.close_tuple(/*completed=*/false, counters);
          SCIDOCK_LOG_WARN("tuple %zu lost at stage %s: %s", tuple_idx,
                           st.tag.c_str(), last_error.c_str());
          slot.failure_messages.push_back(std::move(last_error));
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
      slot.tally.close_tuple(/*completed=*/true, counters);
      slot.output = std::move(frontier);
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
  NativeReport report;
  std::vector<std::string> fields;
  for (const TupleSlot& slot : slots) {
    report.merge(slot.tally);
    report.failure_messages.insert(report.failure_messages.end(),
                                   slot.failure_messages.begin(),
                                   slot.failure_messages.end());
    for (const Tuple& t : slot.output) {
      for (const auto& [k, v] : t.fields()) {
        if (std::find(fields.begin(), fields.end(), k) == fields.end()) {
          fields.push_back(k);
        }
      }
    }
  }
  report.output = Relation(fields);
  for (TupleSlot& slot : slots) {
    for (Tuple& t : slot.output) {
      for (const std::string& f : fields) {
        if (!t.has(f)) t.set(f, "");
      }
      report.output.add(std::move(t));
    }
  }

  stage_relation("output_1.txt", report.output, wall_now() - t0);

  report.wall_seconds = wall_now() - t0;
  prov_.end_workflow(wkfid, report.wall_seconds);
  return report;
}

}  // namespace scidock::wf
