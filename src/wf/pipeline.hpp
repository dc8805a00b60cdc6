#pragma once

/// \file pipeline.hpp
/// Runtime binding of a workflow: each activity tag gets a C++
/// implementation (the "activation" the paper's templates launch) and an
/// optional router that picks the next stage per tuple — SciDock's
/// docking filter routes small receptors to AD4 and large ones to Vina.

#include <functional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "prov/prov.hpp"
#include "util/rng.hpp"
#include "vfs/vfs.hpp"
#include "wf/relation.hpp"
#include "wf/workflow.hpp"

namespace scidock::wf {

/// Everything an activation sees at run time.
struct ActivationContext {
  vfs::SharedFileSystem* fs = nullptr;
  prov::ProvenanceStore* prov = nullptr;
  long long wkfid = 0;
  long long actid = 0;
  long long taskid = 0;
  std::string expdir;     ///< experiment root directory on the shared FS
  double now = 0.0;       ///< current time (wall or simulation seconds)
  Rng rng;                ///< per-activation deterministic stream
  /// Executor's observability context (null members = no instrumentation),
  /// so stage impls can emit domain metrics/spans (grid-map cache hits,
  /// AutoGrid slab timings) into the same registry/trace as the executor.
  obs::Observability obs{};

  /// Convenience: write an output file and record it in provenance.
  void emit_file(const std::string& path, std::string content) const;
  /// Convenience: record an extracted domain value (FEB, RMSD, ...).
  void emit_value(std::string_view key, double num,
                  std::string_view text = "") const;
};

/// An activity implementation: consumes one tuple, produces zero or more
/// output tuples (Map: exactly one; Filter: zero or one; SplitMap: many).
/// Throws ActivityError to signal a failed activation (the engine's
/// re-execution machinery catches it, and any other exception alike).
using ActivityFn =
    std::function<std::vector<Tuple>(const Tuple&, ActivationContext&)>;

/// Per-tuple routing: returns the tag of the next stage given this
/// stage's output tuple, or "" to fall through to the next stage in
/// order, or kEndOfPipeline to finish the tuple's chain.
using RouteFn = std::function<std::string(const Tuple&)>;

inline constexpr const char* kEndOfPipeline = "<end>";

struct Stage {
  std::string tag;
  AlgebraicOp op = AlgebraicOp::Map;
  ActivityFn impl;        ///< may be empty for simulation-only pipelines
  RouteFn route;          ///< empty = next stage in declaration order
  /// Multiplier on the cost model's service time as a function of the
  /// tuple (e.g. receptor size); empty = 1.0.
  std::function<double(const Tuple&)> workload_scale;
  /// Deterministic-hang predicate (the Hg-receptor case); empty = never.
  std::function<bool(const Tuple&)> hazard;
};

class Pipeline {
 public:
  void add_stage(Stage stage);
  const std::vector<Stage>& stages() const { return stages_; }
  const Stage& stage(std::string_view tag) const;   ///< throws NotFoundError
  int stage_index(std::string_view tag) const;      ///< -1 if absent

  /// Tag of the stage following `tag` for this tuple (after routing), or
  /// kEndOfPipeline.
  std::string next_stage(std::string_view tag, const Tuple& tuple) const;

  /// The full ordered chain a tuple would traverse, starting at the first
  /// stage, assuming its routing fields are already present (used by the
  /// simulated executor, which never runs impls).
  std::vector<std::string> chain_for(const Tuple& tuple) const;

 private:
  std::vector<Stage> stages_;
};

}  // namespace scidock::wf
