#include "scidock/experiment.hpp"

#include <set>

#include "cloud/cost_model.hpp"
#include "data/table2.hpp"
#include "util/error.hpp"

namespace scidock::core {

Experiment make_experiment(const std::vector<std::string>& receptors,
                           const std::vector<std::string>& ligands,
                           std::size_t max_pairs, ScidockOptions options) {
  Experiment exp;
  exp.options = options;
  exp.fs = std::make_shared<vfs::SharedFileSystem>();
  exp.prov = std::make_shared<prov::ProvenanceStore>();
  data::stage_dataset(*exp.fs, options.expdir, receptors, ligands,
                      options.dataset);
  exp.pairs = data::build_pairs_relation(receptors, ligands, options.expdir,
                                         max_pairs, options.dataset);
  // The cache learns the campaign's ligand files here and types them at
  // the first gpfprep activation, so setup reads no file.
  std::set<std::string> ligand_files;
  for (const wf::Tuple& t : exp.pairs.tuples()) {
    ligand_files.insert(t.require("ligand_file"));
  }
  exp.cache = make_artifact_cache({ligand_files.begin(), ligand_files.end()});
  exp.pipeline = build_scidock_pipeline(options, exp.cache);
  // Fixed-engine scenarios override the adaptive routing precomputed by
  // the data layer, so the simulated chains match the native routing.
  if (options.engine_mode != EngineMode::Adaptive) {
    const std::string engine =
        options.engine_mode == EngineMode::ForceAd4 ? "ad4" : "vina";
    wf::Relation forced{exp.pairs.field_names()};
    for (const wf::Tuple& t : exp.pairs.tuples()) {
      wf::Tuple copy = t;
      copy.set("engine", engine);
      forced.add(std::move(copy));
    }
    exp.pairs = std::move(forced);
  }
  return exp;
}

wf::NativeReport run_native(Experiment& exp, int threads,
                            const std::string& workflow_tag,
                            obs::Observability obs) {
  wf::NativeExecutorOptions opts;
  opts.threads = threads;
  opts.expdir = exp.options.expdir;
  opts.obs = obs;
  exp.prov->set_metrics(obs.metrics);
  wf::NativeExecutor executor(exp.pipeline, *exp.fs, *exp.prov, opts);
  wf::NativeReport report = executor.run(exp.pairs, workflow_tag);
  exp.prov->set_metrics(nullptr);
  return report;
}

wf::SimExecutorOptions default_sim_options(int virtual_cores,
                                           std::uint64_t seed) {
  wf::SimExecutorOptions opts;
  opts.fleet = wf::m3_fleet_for_cores(virtual_cores);
  opts.scheduler_policy = "greedy-cost";
  opts.seed = seed;
  // Docking writes the bulky outputs (maps, dlg); preparation stages move
  // small text files.
  opts.io_bytes = {
      {kBabel, 8 * 1024},        {kPrepLigand, 16 * 1024},
      {kPrepReceptor, 256 * 1024}, {kGpfPrep, 2 * 1024},
      {kAutogrid, 12 * 1024 * 1024}, {kDockFilter, 1024},
      {kDpfPrep, 2 * 1024},      {kConfPrep, 1024},
      {kAutodock4, 20 * 1024 * 1024}, {kAutodockVina, 4 * 1024 * 1024},
  };
  return opts;
}

wf::SimReport run_simulated(const Experiment& exp, int virtual_cores,
                            prov::ProvenanceStore* prov_store,
                            wf::SimExecutorOptions sim_options,
                            const std::string& workflow_tag) {
  if (sim_options.fleet.empty()) {
    const obs::Observability obs = sim_options.obs;
    sim_options = default_sim_options(virtual_cores, sim_options.seed);
    sim_options.obs = obs;
  }
  wf::SimulatedExecutor executor(exp.pipeline,
                                 cloud::CostModel::scidock_default(),
                                 std::move(sim_options));
  return executor.run(exp.pairs, prov_store, workflow_tag);
}

}  // namespace scidock::core
