#include "scidock/scidock.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "dock/autodock4.hpp"
#include "dock/autogrid.hpp"
#include "dock/dlg.hpp"
#include "dock/vina.hpp"
#include "mol/io_mol2.hpp"
#include "mol/io_pdb.hpp"
#include "mol/io_pdbqt.hpp"
#include "mol/io_sdf.hpp"
#include "mol/prepare.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace scidock::core {

using wf::ActivationContext;
using wf::Stage;
using wf::Tuple;

std::vector<mol::AdType> ligand_type_census(
    const vfs::SharedFileSystem& fs, const std::vector<std::string>& paths) {
  std::set<mol::AdType> census;
  for (const std::string& path : paths) {
    try {
      mol::Molecule lig = mol::read_sdf(fs.read(path));
      lig.perceive();
      if (!lig.fully_parameterised()) continue;
      const std::vector<mol::AdType> types = lig.ad_types_present();
      census.insert(types.begin(), types.end());
    } catch (const Error&) {
      // Left out; the ligand's own activations report the fault.
    }
  }
  return {census.begin(), census.end()};
}

ArtifactCache::ArtifactCache(std::vector<std::string> campaign_ligands)
    : campaign_ligands_(std::move(campaign_ligands)) {}

std::vector<mol::AdType> ArtifactCache::campaign_type_census(
    const vfs::SharedFileSystem& fs) {
  // Held across the reads: the census is computed once, and a concurrent
  // caller waits for it rather than reading the files again.
  MutexLock lock(census_mutex_);
  if (!census_) census_ = ligand_type_census(fs, campaign_ligands_);
  return *census_;
}

std::shared_ptr<const mol::PreparedLigand> ArtifactCache::ligand(
    const std::string& key) {
  MutexLock lock(mutex_);
  const auto it = ligands_.find(key);
  return it == ligands_.end() ? nullptr : it->second;
}

void ArtifactCache::put_ligand(const std::string& key, mol::PreparedLigand value) {
  MutexLock lock(mutex_);
  ligands_[key] = std::make_shared<mol::PreparedLigand>(std::move(value));
}

std::shared_ptr<const mol::PreparedReceptor> ArtifactCache::receptor(
    const std::string& key) {
  MutexLock lock(mutex_);
  const auto it = receptors_.find(key);
  return it == receptors_.end() ? nullptr : it->second;
}

void ArtifactCache::put_receptor(const std::string& key,
                                 mol::PreparedReceptor value) {
  MutexLock lock(mutex_);
  receptors_[key] = std::make_shared<mol::PreparedReceptor>(std::move(value));
}

ArtifactCache::MapsPtr ArtifactCache::maps(const std::string& key) {
  MutexLock lock(mutex_);
  const auto it = maps_.find(key);
  return it == maps_.end() ? nullptr : it->second;
}

void ArtifactCache::alias_maps(const std::string& key, MapsPtr value) {
  MutexLock lock(mutex_);
  maps_[key] = std::move(value);
}

std::pair<ArtifactCache::MapsPtr, CacheOutcome>
ArtifactCache::get_or_compute_maps(
    const std::string& key,
    const std::function<dock::GridMapSet()>& compute) {
  std::shared_future<MapsPtr> future;
  std::shared_ptr<std::promise<MapsPtr>> owner;
  CacheOutcome outcome = CacheOutcome::kMiss;
  lockdep::FlightOwner flight_owner;
  {
    MutexLock lock(mutex_);
    const auto it = map_flights_.find(key);
    if (it != map_flights_.end()) {
      future = it->second.future;
      flight_owner = it->second.owner;
      outcome = future.wait_for(std::chrono::seconds(0)) ==
                        std::future_status::ready
                    ? CacheOutcome::kHit
                    : CacheOutcome::kInflightWait;
    } else {
      owner = std::make_shared<std::promise<MapsPtr>>();
      MapFlight entry{owner, owner->get_future().share(),
                      lockdep::on_flight_claim()};
      future = entry.future;
      map_flights_.emplace(key, std::move(entry));
    }
  }
  if (!owner) {
    // Blocks inflight waiters; rethrows the owner's exception.
    return {lockdep::await_flight(future, flight_owner,
                                  "scidock.gridmaps.single_flight",
                                  outcome == CacheOutcome::kInflightWait),
            outcome};
  }
  try {
    owner->set_value(std::make_shared<const dock::GridMapSet>(compute()));
  } catch (...) {
    // Waiters already holding the future see the exception; erasing the
    // flight lets the executor's retry (or a later tuple) recompute.
    owner->set_exception(std::current_exception());
    MutexLock lock(mutex_);
    map_flights_.erase(key);
    throw;
  }
  return {future.get(), outcome};
}

std::shared_ptr<ArtifactCache> make_artifact_cache(
    std::vector<std::string> campaign_ligands) {
  return std::make_shared<ArtifactCache>(std::move(campaign_ligands));
}

namespace {

/// Load a prepared ligand, via cache when possible.
std::shared_ptr<const mol::PreparedLigand> load_ligand(
    std::shared_ptr<ArtifactCache> cache, ActivationContext& ctx,
    const std::string& path) {
  if (auto hit = cache->ligand(path)) return hit;
  const std::string text = ctx.fs->read(path);
  mol::PdbqtModel model = mol::read_pdbqt(text);
  model.molecule.infer_bonds_from_geometry();
  model.molecule.perceive(/*retype=*/false);
  mol::PreparedLigand prepared{std::move(model.molecule), std::move(model.torsions),
                               text};
  cache->put_ligand(path, std::move(prepared));
  return cache->ligand(path);
}

std::shared_ptr<const mol::PreparedReceptor> load_receptor(
    std::shared_ptr<ArtifactCache> cache, ActivationContext& ctx,
    const std::string& path) {
  if (auto hit = cache->receptor(path)) return hit;
  cache->put_receptor(path, mol::read_prepared_receptor(ctx.fs->read(path)));
  return cache->receptor(path);
}

double tuple_workload(const Tuple& t) { return t.get_double("workload", 1.0); }

bool tuple_hg(const Tuple& t) { return t.get("hg").value_or("0") == "1"; }

std::string pair_dir(const ScidockOptions& opts, const char* stage,
                     const Tuple& t) {
  return opts.expdir + "/" + stage + "/" + t.require("pair") + "/";
}

/// Canonical single-flight key: receptor identity + engine + exact box
/// geometry + sorted type set. Tuples agreeing on all four share one map
/// set.
std::string gridmaps_cache_key(const std::string& receptor_pdbqt,
                               const std::string& engine,
                               const dock::GridParameterFile& gpf) {
  std::string key = receptor_pdbqt + "|" + engine;
  key += strformat("|%d,%d,%d|%.6f|%.6f,%.6f,%.6f", gpf.box.npts[0],
                   gpf.box.npts[1], gpf.box.npts[2], gpf.box.spacing,
                   gpf.box.center.x, gpf.box.center.y, gpf.box.center.z);
  std::vector<std::string> names;
  names.reserve(gpf.ligand_types.size());
  for (mol::AdType t : gpf.ligand_types) {
    names.emplace_back(mol::ad_type_name(t));
  }
  std::sort(names.begin(), names.end());
  for (const std::string& n : names) key += "|" + n;
  return key;
}

}  // namespace

std::string docking_engine(const Tuple& tuple, const ScidockOptions& opts) {
  switch (opts.engine_mode) {
    case EngineMode::ForceAd4: return "ad4";
    case EngineMode::ForceVina: return "vina";
    case EngineMode::Adaptive: break;
  }
  const int residues =
      static_cast<int>(parse_int(tuple.require("residues"), "residues"));
  return residues > data::vina_size_threshold(opts.dataset) ? "vina" : "ad4";
}

wf::Pipeline build_scidock_pipeline(const ScidockOptions& opts,
                                    std::shared_ptr<ArtifactCache> cache) {
  if (!cache) cache = make_artifact_cache();
  wf::Pipeline pipeline;
  const ScidockOptions o = opts;  // captured by value in every lambda

  // ---- 1. babel: SDF -> MOL2 ----
  pipeline.add_stage(Stage{
      kBabel, wf::AlgebraicOp::Map,
      [o](const Tuple& in, ActivationContext& ctx) {
        const std::string sdf = ctx.fs->read(in.require("ligand_file"));
        mol::Molecule lig = mol::read_sdf(sdf, in.require("ligand"));
        const std::string out_path =
            pair_dir(o, kBabel, in) + in.require("ligand") + ".mol2";
        ctx.emit_file(out_path, mol::write_mol2(lig));
        Tuple out = in;
        out.set("ligand_mol2", out_path);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, nullptr});

  // ---- 2. prepare_ligand4 analog: MOL2 -> ligand PDBQT ----
  pipeline.add_stage(Stage{
      kPrepLigand, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        mol::Molecule lig =
            mol::read_mol2(ctx.fs->read(in.require("ligand_mol2")),
                           in.require("ligand"));
        mol::PreparedLigand prepared = mol::prepare_ligand(std::move(lig));
        const std::string out_path =
            pair_dir(o, kPrepLigand, in) + in.require("ligand") + ".pdbqt";
        ctx.emit_file(out_path, prepared.pdbqt);
        ctx.emit_value("TORSDOF", prepared.torsions.torsion_count());
        cache->put_ligand(out_path, std::move(prepared));
        Tuple out = in;
        out.set("ligand_pdbqt", out_path);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, nullptr});

  // ---- 3. prepare_receptor4 analog: PDB -> rigid PDBQT ----
  pipeline.add_stage(Stage{
      kPrepReceptor, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        // One receptor file serves many pairs; keep a single canonical
        // PDBQT per receptor rather than one per pair.
        const std::string out_path =
            o.expdir + "/" + kPrepReceptor + "/" + in.require("receptor") + ".pdbqt";
        if (!cache->receptor(out_path)) {
          mol::Molecule rec =
              mol::read_pdb(ctx.fs->read(in.require("receptor_file")),
                            in.require("receptor"));
          mol::PreparedReceptor prepared = mol::prepare_receptor(std::move(rec));
          ctx.emit_file(out_path, prepared.pdbqt);
          cache->put_receptor(out_path, std::move(prepared));
        }
        Tuple out = in;
        out.set("receptor_pdbqt", out_path);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, tuple_hg});

  // ---- 4. GPF preparation ----
  pipeline.add_stage(Stage{
      kGpfPrep, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        const auto rec = load_receptor(cache, ctx, in.require("receptor_pdbqt"));
        const auto lig =
            load_ligand(cache, ctx, in.require("ligand_pdbqt"));
        // The screening GPF canonicalises the box (floored + quantised
        // half-extent) and lists the campaign's type census with this
        // ligand's own types, so all ligands of one receptor share one
        // GPF — the property grid-map reuse keys on. Applied regardless
        // of reuse_grid_maps so cache on/off produce identical files.
        dock::GridParameterFile gpf = dock::make_screening_gpf(
            rec->molecule, lig->molecule, /*box_padding=*/4.0,
            o.grid_spacing, cache->campaign_type_census(*ctx.fs));
        const std::string out_path = pair_dir(o, kGpfPrep, in) + "grid.gpf";
        ctx.emit_file(out_path, gpf.to_text());
        Tuple out = in;
        out.set("gpf_file", out_path);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, nullptr});

  // ---- 5. AutoGrid ----
  pipeline.add_stage(Stage{
      kAutogrid, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        const std::string gpf_path = in.require("gpf_file");
        const dock::GridParameterFile gpf =
            dock::GridParameterFile::parse(ctx.fs->read(gpf_path));
        const auto rec = load_receptor(cache, ctx, in.require("receptor_pdbqt"));

        // Kernel observability: per-slab counter/histogram plus a trace
        // span per slab so the trace shows the AutoGrid fan-out shape.
        dock::SlabObserver slab_observer;
        obs::Counter* slabs = nullptr;
        obs::HistogramMetric* slab_seconds = nullptr;
        obs::Counter* mapsets = nullptr;
        if (ctx.obs.metrics != nullptr) {
          slabs = &ctx.obs.metrics->counter(obs::kKernelAutogridSlabs);
          slab_seconds =
              &ctx.obs.metrics->histogram(obs::kKernelAutogridSlabSeconds);
          mapsets = &ctx.obs.metrics->counter(obs::kKernelAutogridMapsets);
        }
        if (slabs != nullptr || ctx.obs.trace != nullptr) {
          obs::TraceRecorder* trace = ctx.obs.trace;
          slab_observer = [slabs, slab_seconds, trace](int iz,
                                                      double seconds) {
            if (slabs != nullptr) slabs->inc();
            if (slab_seconds != nullptr) slab_seconds->observe(seconds);
            if (trace != nullptr) {
              const double dur_us = seconds * 1e6;
              trace->complete_span("autogrid-slab", "kernel",
                                   trace->now_us() - dur_us, dur_us,
                                   obs::current_thread_id(),
                                   {{"iz", iz}});
            }
          };
        }

        // Only the map set of the engine activity 6 will route to.
        const std::string engine = docking_engine(in, o);
        const auto compute = [&]() {
          const dock::GridMapCalculator calc(rec->molecule, slab_observer);
          dock::GridMapSet maps = calc.calculate(
              gpf.box, gpf.ligand_types,
              engine == "vina" ? dock::ScoringFunction::Vina
                               : dock::ScoringFunction::Ad4);
          // Counted at compute time (not activation end): a computation
          // whose activation later fails still happened, so the checker's
          // bound is mapsets >= misses, not equality.
          if (mapsets != nullptr) mapsets->inc();
          return maps;
        };

        ArtifactCache::MapsPtr maps;
        CacheOutcome outcome = CacheOutcome::kMiss;
        if (o.reuse_grid_maps) {
          std::tie(maps, outcome) = cache->get_or_compute_maps(
              gridmaps_cache_key(in.require("receptor_pdbqt"), engine, gpf),
              compute);
        } else {
          maps = std::make_shared<const dock::GridMapSet>(compute());
        }

        const std::string prefix = pair_dir(o, kAutogrid, in) + "receptor";
        // The field file always lands on the shared FS (it is what the DPF
        // references); the bulky per-type maps only when asked.
        std::string fld = strformat(
            "# scidock maps field file\nspacing %.4f\nnmaps %d\n",
            gpf.box.spacing, maps->file_count());
        for (const auto& [type, map] : maps->affinity) {
          fld += "map receptor." + std::string(mol::ad_type_name(type)) + ".map\n";
          if (o.write_map_files) {
            ctx.emit_file(prefix + "." + std::string(mol::ad_type_name(type)) + ".map",
                          map.to_map_file());
          }
        }
        if (o.write_map_files && maps->scoring == dock::ScoringFunction::Ad4) {
          ctx.emit_file(prefix + ".e.map", maps->electrostatic.to_map_file());
          ctx.emit_file(prefix + ".d.map", maps->desolvation.to_map_file());
        }
        ctx.emit_file(prefix + ".maps.fld", fld);
        // The docking stages look maps up by the per-pair prefix (AD4 reads
        // it from the DPF); alias that name to the shared set (no copy).
        cache->alias_maps(prefix, maps);
        // Cache outcome counters last, after every output landed: a faulted
        // activation (chaos VFS writes) reruns and counts only once, when
        // it FINISHES — the invariant the PROV-Wf reconciliation checks.
        if (ctx.obs.metrics != nullptr) {
          const char* name = outcome == CacheOutcome::kHit
                                 ? obs::kCacheGridmapsHits
                                 : outcome == CacheOutcome::kMiss
                                       ? obs::kCacheGridmapsMisses
                                       : obs::kCacheGridmapsInflightWaits;
          ctx.obs.metrics->counter(name).inc();
        }
        Tuple out = in;
        out.set("maps_prefix", prefix);
        return std::vector<Tuple>{out};
      },
      nullptr, tuple_workload, nullptr});

  // ---- 6. docking filter: size-based engine routing ----
  pipeline.add_stage(Stage{
      kDockFilter, wf::AlgebraicOp::Filter,
      [o](const Tuple& in, ActivationContext&) {
        Tuple out = in;
        out.set("engine", docking_engine(in, o));
        return std::vector<Tuple>{out};
      },
      [](const Tuple& t) {
        return t.require("engine") == "vina" ? std::string(kConfPrep)
                                             : std::string(kDpfPrep);
      },
      tuple_workload, nullptr});

  // ---- 7a. DPF preparation (AD4 path) ----
  pipeline.add_stage(Stage{
      kDpfPrep, wf::AlgebraicOp::Map,
      [o](const Tuple& in, ActivationContext& ctx) {
        dock::DockingParameterFile dpf = o.ad4_params;
        dpf.ligand_file = in.require("ligand_pdbqt");
        dpf.receptor_maps_prefix = in.require("maps_prefix");
        dpf.seed = fnv1a64(in.require("pair")) & 0x7fffffffffffffffULL;
        const std::string out_path = pair_dir(o, kDpfPrep, in) + "dock.dpf";
        ctx.emit_file(out_path, dpf.to_text());
        Tuple out = in;
        out.set("dpf_file", out_path);
        return std::vector<Tuple>{out};
      },
      [](const Tuple&) { return std::string(kAutodock4); },
      tuple_workload, nullptr});

  // ---- 7b. Vina configuration (Vina path) ----
  pipeline.add_stage(Stage{
      kConfPrep, wf::AlgebraicOp::Map,
      [o](const Tuple& in, ActivationContext& ctx) {
        const dock::GridParameterFile gpf =
            dock::GridParameterFile::parse(ctx.fs->read(in.require("gpf_file")));
        dock::VinaConfig cfg;
        cfg.receptor_file = in.require("receptor_pdbqt");
        cfg.ligand_file = in.require("ligand_pdbqt");
        cfg.box = gpf.box;
        cfg.exhaustiveness = o.vina_exhaustiveness;
        cfg.seed = fnv1a64(in.require("pair")) & 0x7fffffffffffffffULL;
        const std::string out_path = pair_dir(o, kConfPrep, in) + "conf.txt";
        ctx.emit_file(out_path, cfg.to_text());
        Tuple out = in;
        out.set("conf_file", out_path);
        return std::vector<Tuple>{out};
      },
      [](const Tuple&) { return std::string(kAutodockVina); },
      tuple_workload, nullptr});

  // ---- 8a. AutoDock 4 ----
  pipeline.add_stage(Stage{
      kAutodock4, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        const dock::DockingParameterFile dpf =
            dock::DockingParameterFile::parse(ctx.fs->read(in.require("dpf_file")));
        const auto lig = load_ligand(cache, ctx, dpf.ligand_file);
        const auto maps = cache->maps(dpf.receptor_maps_prefix);
        SCIDOCK_REQUIRE(maps != nullptr,
                        "AutoGrid maps not found for " + dpf.receptor_maps_prefix);
        dock::Autodock4Engine engine(dpf);
        Rng rng(dpf.seed);
        dock::DockingResult result = engine.dock_with_maps(*maps, *lig, rng);
        result.receptor_name = in.require("receptor");

        const std::string out_path =
            pair_dir(o, kAutodock4, in) +
            in.require("ligand") + "_" + in.require("receptor") + ".dlg";
        ctx.emit_file(out_path, dock::write_dlg(result));
        const double feb = result.empty() ? 0.0 : result.best().feb;
        // AD4's RMSD table is measured against the input reference frame.
        const double rmsd = result.mean_rmsd();
        ctx.emit_value("FEB", feb, "kcal/mol");
        ctx.emit_value("RMSD", rmsd, "A");
        Tuple out = in;
        out.set("dlg_file", out_path);
        out.set("feb", strformat("%.4f", feb));
        out.set("rmsd", strformat("%.4f", rmsd));
        return std::vector<Tuple>{out};
      },
      [](const Tuple&) { return std::string(wf::kEndOfPipeline); },
      tuple_workload, nullptr});

  // ---- 8b. AutoDock Vina ----
  pipeline.add_stage(Stage{
      kAutodockVina, wf::AlgebraicOp::Map,
      [o, cache](const Tuple& in, ActivationContext& ctx) {
        const dock::VinaConfig cfg =
            dock::VinaConfig::parse(ctx.fs->read(in.require("conf_file")));
        const auto rec = load_receptor(cache, ctx, cfg.receptor_file);
        const auto lig = load_ligand(cache, ctx, cfg.ligand_file);
        const std::string maps_prefix = in.require("maps_prefix");
        const auto maps = cache->maps(maps_prefix);
        SCIDOCK_REQUIRE(maps != nullptr,
                        "AutoGrid maps not found for " + maps_prefix);
        dock::VinaEngine engine(cfg);
        engine.steps_per_chain = o.vina_steps_per_chain;
        Rng rng(cfg.seed);
        dock::DockingResult result =
            engine.dock_with_maps(*rec, *maps, *lig, rng);

        const std::string out_path =
            pair_dir(o, kAutodockVina, in) +
            in.require("ligand") + "_" + in.require("receptor") + ".log";
        ctx.emit_file(out_path, dock::write_vina_log(result));
        // Vina also writes the docked conformations back as PDBQT models
        // ("a new version of the PDBQT file with the binding information").
        if (!result.empty()) {
          ctx.emit_file(pair_dir(o, kAutodockVina, in) +
                            in.require("ligand") + "_" +
                            in.require("receptor") + "_out.pdbqt",
                        dock::write_poses_pdbqt(*lig, result));
        }
        const double feb = result.empty() ? 0.0 : result.best().feb;
        // Vina's mode table reports distances *between modes*, not against
        // the reference frame; the extractor therefore records the mean
        // displacement from the best mode (this is why Table 3's Vina RMSD
        // column is an order of magnitude below AD4's).
        double rmsd = 0.0;
        if (result.conformations.size() > 1) {
          for (std::size_t i = 1; i < result.conformations.size(); ++i) {
            rmsd += mol::rmsd(result.conformations[i].coords,
                              result.conformations[0].coords);
          }
          rmsd /= static_cast<double>(result.conformations.size() - 1);
        }
        ctx.emit_value("FEB", feb, "kcal/mol");
        ctx.emit_value("RMSD", rmsd, "A");
        Tuple out = in;
        out.set("dlg_file", out_path);
        out.set("feb", strformat("%.4f", feb));
        out.set("rmsd", strformat("%.4f", rmsd));
        return std::vector<Tuple>{out};
      },
      [](const Tuple&) { return std::string(wf::kEndOfPipeline); },
      tuple_workload, nullptr});

  return pipeline;
}

wf::WorkflowDef scidock_workflow_def(const ScidockOptions& opts) {
  wf::WorkflowDef def;
  def.tag = "SciDock";
  def.description = "Docking";
  def.exec_tag = "scidock";
  def.expdir = opts.expdir + "/";
  def.database.server = "ec2-50-17-107-164.compute-1.amazonaws.com";

  // The pipeline routes each dockfilter tuple by its engine field; the
  // stage pairs along its AD4 and Vina chains are the relation DAG.
  const wf::Pipeline pipeline = build_scidock_pipeline(opts);
  std::map<std::string, std::string> upstream;  // stage tag -> its producer
  for (const char* engine : {"ad4", "vina"}) {
    Tuple tuple;
    tuple.set("engine", engine);
    const std::vector<std::string> chain = pipeline.chain_for(tuple);
    for (std::size_t i = 1; i < chain.size(); ++i) {
      upstream[chain[i]] = chain[i - 1];
    }
  }
  for (const Stage& stage : pipeline.stages()) {
    wf::ActivityDef act;
    act.tag = stage.tag;
    act.op = stage.op;
    act.template_dir = def.expdir + "template_" + stage.tag + "/";
    act.activation_command = "./experiment.cmd";
    const auto producer = upstream.find(stage.tag);
    const std::string input =
        producer == upstream.end() ? "input" : producer->second;
    act.relations.push_back(
        wf::RelationDef{"rel_" + input, input + ".txt", true});
    act.relations.push_back(
        wf::RelationDef{"rel_" + stage.tag, stage.tag + ".txt", false});
    def.activities.push_back(std::move(act));
  }
  return def;
}

}  // namespace scidock::core
