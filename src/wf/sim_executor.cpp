#include "wf/sim_executor.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "vfs/vfs.hpp"

namespace scidock::wf {

namespace {
/// Stage-in/out volume of an activity without an `io_bytes` entry.
constexpr std::size_t kDefaultIoBytes = 256 * 1024;
/// Prices stage-in/out on the shared filesystem.
constexpr vfs::LatencyModel kSharedFs{};
}  // namespace

std::vector<cloud::VmType> m3_fleet_for_cores(int virtual_cores) {
  SCIDOCK_REQUIRE(virtual_cores >= 1, "need at least one core");
  std::vector<cloud::VmType> fleet;
  int remaining = virtual_cores;
  while (remaining >= 8) {
    fleet.push_back(cloud::vm_type_m3_2xlarge());
    remaining -= 8;
  }
  while (remaining >= 4) {
    fleet.push_back(cloud::vm_type_m3_xlarge());
    remaining -= 4;
  }
  if (remaining > 0) {
    // Round up with the small instance; the simulator caps usable slots
    // at the type's core count, so a 2-core request gets a 4-core VM with
    // two slots masked.
    cloud::VmType t = cloud::vm_type_m3_xlarge();
    t.cores = remaining;
    t.name += "(partial)";
    fleet.push_back(t);
  }
  return fleet;
}

SimulatedExecutor::SimulatedExecutor(const Pipeline& pipeline,
                                     cloud::CostModel cost_model,
                                     SimExecutorOptions options)
    : pipeline_(pipeline), cost_model_(std::move(cost_model)),
      options_(std::move(options)) {
  SCIDOCK_REQUIRE(!options_.fleet.empty(), "simulated fleet is empty");
  for (const Stage& st : pipeline.stages()) {
    SCIDOCK_REQUIRE(cost_model_.has(st.tag),
                    "cost model has no entry for stage '" + st.tag + "'");
  }
}

SimReport SimulatedExecutor::run(const Relation& input,
                                 prov::ProvenanceStore* prov,
                                 const std::string& workflow_tag) {
  cloud::Simulation sim;
  Rng rng(options_.seed);
  Rng failure_rng = rng.fork("failures");
  Rng duration_rng = rng.fork("durations");
  cloud::VirtualCluster cluster(sim, rng.fork("cluster"));
  const cloud::FailureModel failure_model(options_.failure);
  const auto scheduler = make_scheduler(options_.scheduler_policy);

  const obs::ExecutorCounters counters =
      obs::executor_counters(options_.obs.metrics);
  obs::TraceRecorder* const trace = options_.obs.trace;

  SimReport report;

  // ---- provenance bootstrap ----
  long long wkfid = 0;
  std::map<std::string, long long> actids;
  if (prov != nullptr) {
    wkfid = prov->begin_workflow(workflow_tag, "simulated execution",
                                 "/root/exp_" + workflow_tag + "/", 0.0);
    for (const Stage& st : pipeline_.stages()) {
      actids[st.tag] = prov->register_activity(
          wkfid, st.tag, "./experiment.cmd", std::string(to_string(st.op)));
    }
  }

  // ---- tuple state ----
  struct TupleState {
    std::vector<std::string> chain;
    std::size_t stage = 0;
    int attempts_at_stage = 0;
  };
  std::vector<TupleState> tuples;
  tuples.reserve(input.size());
  for (const Tuple& t : input.tuples()) {
    tuples.push_back(TupleState{pipeline_.chain_for(t)});
  }

  // ---- scheduling state ----
  std::map<long long, std::size_t> act_to_tuple;
  long long next_act_id = 1;
  std::map<long long, int> free_slots;  ///< usable (booted) VM -> free cores
  long long busy = 0;                   ///< in-flight activations
  // Every tuple has completed or been lost.
  auto drained = [&] {
    return report.tuples_completed + report.tuples_lost ==
           static_cast<long long>(tuples.size());
  };

  auto tuple_of = [&input](std::size_t idx) -> const Tuple& {
    return input.tuples()[idx];
  };

  auto stage_for = [&](std::size_t tuple_idx) -> const Stage& {
    const TupleState& ts = tuples[tuple_idx];
    return pipeline_.stage(ts.chain[ts.stage]);
  };

  auto enqueue = [&](std::size_t tuple_idx) {
    const TupleState& ts = tuples[tuple_idx];
    const Stage& st = stage_for(tuple_idx);
    const double scale =
        st.workload_scale ? st.workload_scale(tuple_of(tuple_idx)) : 1.0;
    PendingActivation pa;
    pa.id = next_act_id++;
    pa.activity_tag = st.tag;
    pa.expected_cost_s = cost_model_.expected(st.tag, scale, 1.0);
    pa.attempts = ts.attempts_at_stage;
    act_to_tuple[pa.id] = tuple_idx;
    scheduler->push(std::move(pa));
  };

  for (std::size_t i = 0; i < tuples.size(); ++i) enqueue(i);

  // Forward declaration dance: dispatch is invoked from event handlers.
  std::function<void()> dispatch;
  // The engine's central scheduler is serial: each dispatch decision
  // occupies it for the planning overhead, and a slot whose decision is
  // queued behind others stays idle meanwhile (paper SS V.C).
  double scheduler_free_at = 0.0;

  auto io_bytes_for = [&](const std::string& tag) -> std::size_t {
    const auto it = options_.io_bytes.find(tag);
    return it == options_.io_bytes.end() ? kDefaultIoBytes : it->second;
  };

  auto on_complete = [&](long long act_id, long long vm_id,
                         cloud::ActivationOutcome outcome, double started,
                         bool no_retry) {
    const std::size_t tuple_idx = act_to_tuple.at(act_id);
    act_to_tuple.erase(act_id);
    TupleState& ts = tuples[tuple_idx];
    const std::string tag = ts.chain[ts.stage];
    // The attempt number of the activation that just completed; captured
    // before the counter is reset (success) or advanced (failure) so
    // provenance and the tally see the real 1-based attempt.
    const int attempt = ts.attempts_at_stage + 1;
    --busy;
    ++free_slots[vm_id];

    const double duration = sim.now() - started;
    const std::string status(
        outcome == cloud::ActivationOutcome::Success ? prov::kStatusFinished
        : outcome == cloud::ActivationOutcome::Hang  ? prov::kStatusAborted
                                                     : prov::kStatusFailed);
    report.close_attempt(tag, status, attempt, duration, counters);
    if (outcome == cloud::ActivationOutcome::Success) {
      ts.attempts_at_stage = 0;
      ++ts.stage;
      if (ts.stage >= ts.chain.size()) {
        report.close_tuple(/*completed=*/true, counters);
      } else {
        enqueue(tuple_idx);
      }
    } else {
      ++ts.attempts_at_stage;
      const bool retry = !no_retry && options_.reexecute_failures &&
                         ts.attempts_at_stage < options_.failure.max_attempts;
      if (retry) enqueue(tuple_idx);
      else report.close_tuple(/*completed=*/false, counters);
    }
    if (prov != nullptr) {
      const long long taskid = prov->begin_activation(
          actids[tag], wkfid, started, vm_id,
          tuple_of(tuple_idx).get("pair").value_or(""));
      prov->end_activation(taskid, sim.now(), status,
                           status == prov::kStatusFinished ? 0 : 1, attempt);
    }
    if (trace != nullptr) {
      trace->complete_span(tag, "activation", started * 1e6, duration * 1e6,
                           vm_id,
                           {{"tuple", static_cast<long long>(tuple_idx)},
                            {"attempt", attempt},
                            {"status", status}});
      if (status != prov::kStatusFinished) {
        trace->instant(status == prov::kStatusAborted ? "activation-hang"
                                                      : "activation-failure",
                       "fault", sim.now() * 1e6, vm_id);
      }
    }
    // The run ends with its last activation: an elasticity tick or a VM
    // boot still queued must not stretch the TET or the bill.
    if (drained()) sim.stop();
    dispatch();
  };

  dispatch = [&]() {
    for (;;) {
      if (scheduler->empty()) return;
      // Fastest usable VM with a free slot takes work first (the greedy
      // policy's "powerful VMs get the long activations").
      long long best_vm = -1;
      double best_slowdown = 0.0;
      for (const auto& [vm_id, slots] : free_slots) {
        if (slots <= 0) continue;
        const double sd = cluster.instance(vm_id).slowdown();
        if (best_vm < 0 || sd < best_slowdown) {
          best_vm = vm_id;
          best_slowdown = sd;
        }
      }
      if (best_vm < 0) return;  // everything busy

      const cloud::VmInstance& vm = cluster.instance(best_vm);
      const PendingActivation pa = scheduler->pop(vm);

      const std::size_t tuple_idx = act_to_tuple.at(pa.id);
      const Stage& st = pipeline_.stage(pa.activity_tag);
      const Tuple& tup = tuple_of(tuple_idx);

      const double planning = cost_model_.scheduling_overhead(
          scheduler->size() + 1,
          static_cast<std::size_t>(cluster.alive_count()));
      const double start_planning = std::max(sim.now(), scheduler_free_at);
      scheduler_free_at = start_planning + planning;
      // The slot idles from now until the serial scheduler finishes its
      // plan for this activation.
      const double overhead = scheduler_free_at - sim.now();
      report.scheduling_overhead_s += overhead;
      const std::size_t bytes = io_bytes_for(pa.activity_tag);
      const double staging = kSharedFs.read_cost(bytes) + kSharedFs.write_cost(bytes);
      report.data_staging_s += staging;

      const double scale = st.workload_scale ? st.workload_scale(tup) : 1.0;
      const double service =
          cost_model_.sample(pa.activity_tag, scale, vm.slowdown(), duration_rng);

      const bool hazard = st.hazard && st.hazard(tup);
      const bool preabort = hazard && options_.preabort_hazards;
      const cloud::ActivationOutcome outcome =
          failure_model.sample(failure_rng, hazard);

      double busy_time = overhead + staging;
      if (preabort) {
        // Hazard recognised up-front: the activation is aborted before it
        // can enter the looping state; no service time is burned and the
        // tuple is not retried (its input will always hang).
        --free_slots[best_vm];
        ++busy;
        const double started = sim.now();
        const long long act_id = pa.id;
        const long long vm_id = best_vm;
        sim.schedule_after(overhead, [&, act_id, vm_id, started] {
          on_complete(act_id, vm_id, cloud::ActivationOutcome::Hang, started,
                      /*no_retry=*/true);
        });
        continue;
      }
      switch (outcome) {
        case cloud::ActivationOutcome::Success:
          busy_time += service;
          break;
        case cloud::ActivationOutcome::Failure:
          // Crashes surface partway through the run.
          busy_time += service * failure_rng.uniform(0.2, 1.0);
          break;
        case cloud::ActivationOutcome::Hang:
          // Looping state: the slot is stuck until the watchdog aborts it.
          busy_time += options_.failure.hang_timeout_s;
          break;
      }

      --free_slots[best_vm];
      ++busy;
      const double started = sim.now();
      const long long act_id = pa.id;
      const long long vm_id = best_vm;
      sim.schedule_after(busy_time, [&, act_id, vm_id, outcome, started] {
        on_complete(act_id, vm_id, outcome, started, /*no_retry=*/false);
      });
    }
  };

  // Provisioning instrumentation shared by the initial fleet and the
  // elasticity controller: a "vm-boot" span covering acquire -> usable.
  auto observe_acquire = [&](long long id, const cloud::VmType& type,
                             double acquired_at, double boot_completed_at) {
    if (options_.obs.metrics != nullptr) {
      options_.obs.metrics
          ->counter("scidock_cloud_vms_acquired_total",
                    "VM acquisitions (boot requested)")
          .inc();
    }
    if (trace != nullptr) {
      trace->complete_span("vm-boot", "cloud", acquired_at * 1e6,
                           (boot_completed_at - acquired_at) * 1e6, id,
                           {{"type", type.name}, {"cores", type.cores}});
    }
  };

  // ---- boot the initial fleet ----
  for (const cloud::VmType& type : options_.fleet) {
    const long long id = cluster.acquire(type);
    const cloud::VmInstance& vm = cluster.instance(id);
    const int cores = type.cores;
    observe_acquire(id, type, sim.now(), vm.boot_completed_at);
    sim.schedule_at(vm.boot_completed_at, [&, id, cores] {
      free_slots[id] = cores;
      dispatch();
    });
    if (prov != nullptr) {
      prov->record_machine(id, type.name, type.cores, vm.slowdown());
    }
  }

  // ---- elasticity controller ----
  std::function<void()> controller;
  controller = [&] {
    if (drained()) return;
    const int alive = cluster.alive_count();
    const int cores_per_vm = std::max(1, options_.elastic_vm_type.cores);
    const int target = std::clamp(
        static_cast<int>(scheduler->size()) / (4 * cores_per_vm) +
            options_.min_vms,
        options_.min_vms, options_.max_vms);
    if (alive < target) {
      const long long id = cluster.acquire(options_.elastic_vm_type);
      const cloud::VmInstance& vm = cluster.instance(id);
      const int cores = options_.elastic_vm_type.cores;
      observe_acquire(id, options_.elastic_vm_type, sim.now(),
                      vm.boot_completed_at);
      sim.schedule_at(vm.boot_completed_at, [&, id, cores] {
        free_slots[id] = cores;
        dispatch();
      });
    } else if (alive > target) {
      // Release one fully idle VM per tick (graceful scale-down).
      for (auto it = free_slots.begin(); it != free_slots.end(); ++it) {
        const cloud::VmInstance& vm = cluster.instance(it->first);
        if (vm.alive() && it->second == vm.type.cores && alive > options_.min_vms) {
          cluster.release(it->first);
          if (options_.obs.metrics != nullptr) {
            options_.obs.metrics
                ->counter("scidock_cloud_vms_released_total",
                          "VMs released by the elasticity controller")
                .inc();
          }
          if (trace != nullptr) {
            trace->instant("vm-release", "cloud", sim.now() * 1e6, it->first);
          }
          free_slots.erase(it);
          break;
        }
      }
    }
    sim.schedule_after(options_.elasticity_period_s, controller);
  };
  if (options_.elasticity) {
    SCIDOCK_REQUIRE(options_.elastic_vm_type.cores > 0,
                    "elasticity requires elastic_vm_type");
    sim.schedule_after(options_.elasticity_period_s, controller);
  }

  sim.run();

  SCIDOCK_ASSERT_MSG(busy == 0 && scheduler->empty(),
                     "simulation drained with work outstanding");
  report.total_execution_time_s = sim.now();
  report.cloud_cost_usd = cluster.accumulated_cost_usd();
  report.peak_alive_vms = static_cast<int>(cluster.instances().size());
  report.total_cores = cluster.total_cores();
  if (prov != nullptr) prov->end_workflow(wkfid, sim.now());

  // Placement / utilisation summary series (whole-run, not per event).
  if (options_.obs.metrics != nullptr) {
    obs::MetricsRegistry& m = *options_.obs.metrics;
    const SchedulerStats& ss = scheduler->stats();
    m.counter("scidock_sched_picks_total", "scheduler placement decisions")
        .inc(ss.picks);
    m.counter("scidock_sched_reexecution_picks_total",
              "placements of re-executed activations")
        .inc(ss.reexecution_picks);
    m.gauge("scidock_sched_mean_queue_length",
            "mean ready-queue length at placement time")
        .set(ss.mean_queue_length());
    m.gauge("scidock_sched_overhead_seconds",
            "summed serial planning time charged to slots")
        .set(report.scheduling_overhead_s);
    m.gauge("scidock_cloud_cost_usd", "accumulated VM cost")
        .set(report.cloud_cost_usd);
    m.gauge("scidock_cloud_total_cores", "cores across acquired VMs")
        .set(static_cast<double>(report.total_cores));
    // Utilisation: busy core-seconds over available core-seconds (the
    // figure-9 efficiency denominator).
    double busy_core_s = 0.0;
    for (const auto& [tag, stats] : report.per_activity_seconds) {
      busy_core_s += stats.sum();
    }
    const double capacity_s =
        report.total_execution_time_s * static_cast<double>(report.total_cores);
    m.gauge("scidock_cloud_vm_utilisation",
            "busy core-seconds / available core-seconds")
        .set(capacity_s > 0.0 ? busy_core_s / capacity_s : 0.0);
  }
  return report;
}

}  // namespace scidock::wf
