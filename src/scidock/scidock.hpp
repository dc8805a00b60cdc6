#pragma once

/// \file scidock.hpp
/// The SciDock workflow itself: the paper's eight activities implemented
/// over the mol/dock libraries and bound into a wf::Pipeline, plus the
/// Figure 2 XML definition.
///
/// Activity map (paper Figure 1):
///   1 babel         — SDF -> MOL2 conversion
///   2 prepligand    — MOL2 -> ligand PDBQT (charges, types, torsion tree)
///   3 prepreceptor  — PDB -> rigid receptor PDBQT (hangs on Hg upstream)
///   4 gpfprep       — grid parameter file from the PDBQT pair
///   5 autogrid      — coordinate/affinity maps
///   6 dockfilter    — size-based routing: AD4 (small) vs Vina (large)
///   7a dpfprep      — AD4 docking parameter file
///   7b confprep     — Vina configuration file
///   8a autodock4    — LGA docking over the maps, .dlg output
///   8b autodockvina — MC docking, Vina log output

#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/generator.hpp"
#include "dock/dpf.hpp"
#include "dock/grid.hpp"
#include "mol/prepare.hpp"
#include "util/thread_annotations.hpp"
#include "wf/pipeline.hpp"
#include "wf/workflow.hpp"

namespace scidock::core {

/// Which docking program handles each pair (paper §V.B scenarios).
enum class EngineMode {
  Adaptive,   ///< activity 6 routes by receptor size (SciDock's design)
  ForceAd4,   ///< Scenario I: the whole set through AutoDock 4
  ForceVina,  ///< Scenario II: the whole set through Vina
};

struct ScidockOptions {
  data::GeneratorOptions dataset{};
  EngineMode engine_mode = EngineMode::Adaptive;

  /// Search effort — defaults are deliberately small so native runs of
  /// hundreds of pairs finish in seconds; raise for higher-quality poses.
  dock::DockingParameterFile ad4_params{
      .ga_runs = 2, .ga_pop_size = 24, .ga_num_evals = 3000,
      .ga_num_generations = 60, .sw_max_its = 50};
  int vina_exhaustiveness = 3;
  int vina_steps_per_chain = 40;

  double grid_spacing = 0.55;   ///< Å; AutoGrid's default 0.375 is slower
  bool write_map_files = false; ///< also serialise .map files to the VFS
  /// Single-flight grid-map reuse (DESIGN.md §10): AutoGrid activations
  /// sharing a (receptor, engine, box, type-set) key compute the map set
  /// once and share the result. Off recomputes per tuple, as the paper's
  /// original workflow does; outputs are bit-identical either way.
  bool reuse_grid_maps = true;
  std::string expdir = "/root/exp_SciDock";
};

/// How a get_or_compute_maps call was satisfied. An activation reports
/// exactly one outcome, so summed over a run:
///   hits + misses + inflight_waits == finished AutoGrid activations.
enum class CacheOutcome {
  kHit,           ///< result was already computed and ready
  kMiss,          ///< this caller computed it (single-flight owner)
  kInflightWait,  ///< another caller was computing; this one blocked
};

/// The AD types that the SDF ligands at `paths` carry once prepared: the
/// union, in type order, of each file read with read_sdf and typed by
/// perceive(), as prepligand types it. A file that cannot be read or
/// parsed, or that holds an atom without parameters, is left out; its own
/// babel or prepligand activation fails.
std::vector<mol::AdType> ligand_type_census(
    const vfs::SharedFileSystem& fs, const std::vector<std::string>& paths);

/// Shared in-process cache of expensive intermediates (prepared
/// structures and grid maps, keyed by file path, and the campaign's
/// ligand-type census). Plays the role of a VM-local scratch cache over
/// the shared filesystem. Thread-safe; shared_ptr values so readers keep
/// entries alive without copying.
class ArtifactCache {
 public:
  using MapsPtr = std::shared_ptr<const dock::GridMapSet>;

  /// `campaign_ligands`: the distinct ligand files of the run's input
  /// relation (make_experiment hands them over), which the screening
  /// GPF's type set is sized to.
  explicit ArtifactCache(std::vector<std::string> campaign_ligands = {});

  /// The campaign's ligand_type_census, read through `fs` by the first
  /// caller while concurrent callers wait for it; every later call
  /// returns the same set. Empty when the cache has no campaign.
  std::vector<mol::AdType> campaign_type_census(const vfs::SharedFileSystem& fs);

  std::shared_ptr<const mol::PreparedLigand> ligand(const std::string& key);
  void put_ligand(const std::string& key, mol::PreparedLigand value);
  std::shared_ptr<const mol::PreparedReceptor> receptor(const std::string& key);
  void put_receptor(const std::string& key, mol::PreparedReceptor value);
  MapsPtr maps(const std::string& key);
  /// Register an additional name for an existing map set (the AutoGrid
  /// stage aliases its per-pair maps_prefix to the shared canonical set).
  void alias_maps(const std::string& key, MapsPtr value);

  /// Single-flight lookup: the first caller for `key` runs `compute` while
  /// concurrent callers for the same key block on its result instead of
  /// recomputing; later callers get the cached set. If `compute` throws,
  /// the flight is erased (a retry recomputes) and every caller sees the
  /// exception.
  std::pair<MapsPtr, CacheOutcome> get_or_compute_maps(
      const std::string& key, const std::function<dock::GridMapSet()>& compute);

 private:
  struct MapFlight {
    std::shared_ptr<std::promise<MapsPtr>> promise;
    std::shared_future<MapsPtr> future;
    [[no_unique_address]] lockdep::FlightOwner owner;
  };

  const std::vector<std::string> campaign_ligands_;
  Mutex census_mutex_{"scidock.census"};
  std::optional<std::vector<mol::AdType>> census_
      SCIDOCK_GUARDED_BY(census_mutex_);

  Mutex mutex_{"scidock.cache"};
  std::unordered_map<std::string, std::shared_ptr<const mol::PreparedLigand>>
      ligands_ SCIDOCK_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::shared_ptr<const mol::PreparedReceptor>>
      receptors_ SCIDOCK_GUARDED_BY(mutex_);
  std::unordered_map<std::string, MapsPtr> maps_ SCIDOCK_GUARDED_BY(mutex_);
  std::unordered_map<std::string, MapFlight> map_flights_
      SCIDOCK_GUARDED_BY(mutex_);
};

/// Build the runnable pipeline: all stages with native implementations,
/// routing, per-tuple workload scaling and the Hg hazard predicate. The
/// returned pipeline references `cache` and `opts` by value internally.
wf::Pipeline build_scidock_pipeline(const ScidockOptions& opts,
                                    std::shared_ptr<ArtifactCache> cache = nullptr);

std::shared_ptr<ArtifactCache> make_artifact_cache(
    std::vector<std::string> campaign_ligands = {});

/// Activity 6's routing rule for a pair tuple: "vina" when the receptor
/// has more residues than the dataset's size threshold, else "ad4"; the
/// forced modes override it. It reads only the receptor, so AutoGrid
/// (activity 5) applies it too and builds only the map set of the engine
/// that will dock the pair.
std::string docking_engine(const wf::Tuple& tuple, const ScidockOptions& opts);

/// The static workflow definition matching the Figure 2 XML specification
/// (round-trips through wf::save_spec / wf::load_spec).
wf::WorkflowDef scidock_workflow_def(const ScidockOptions& opts = {});

/// Stage tags, exposed for benches/tests.
inline constexpr const char* kBabel = "babel";
inline constexpr const char* kPrepLigand = "prepligand";
inline constexpr const char* kPrepReceptor = "prepreceptor";
inline constexpr const char* kGpfPrep = "gpfprep";
inline constexpr const char* kAutogrid = "autogrid";
inline constexpr const char* kDockFilter = "dockfilter";
inline constexpr const char* kDpfPrep = "dpfprep";
inline constexpr const char* kConfPrep = "confprep";
inline constexpr const char* kAutodock4 = "autodock4";
inline constexpr const char* kAutodockVina = "autodockvina";

}  // namespace scidock::core
