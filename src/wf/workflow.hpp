#pragma once

/// \file workflow.hpp
/// Workflow definition: the static description SciCumulus reads from its
/// XML specification (paper Figure 2) — activities, their algebraic
/// operators, template directories and relation wiring.

#include <string>
#include <string_view>
#include <vector>

namespace scidock::wf {

/// SciCumulus algebraic operators (Ogasawara et al. 2011).
enum class AlgebraicOp {
  Map,       ///< 1 tuple in -> 1 tuple out
  SplitMap,  ///< 1 tuple in -> N tuples out
  Filter,    ///< 1 tuple in -> 0 or 1 tuples out
  Reduce,    ///< N tuples in -> 1 tuple out
  SRQuery,   ///< relational query over the input relation
};

std::string_view to_string(AlgebraicOp op);
AlgebraicOp algebraic_op_from(std::string_view name);

struct RelationDef {
  std::string name;
  std::string filename;
  bool is_input = true;
  /// Declared schema (ordered field names), empty when the spec omits the
  /// optional `fields` attribute. load_spec uses it to check that a
  /// consumer's declared input schema is satisfied by its producer's
  /// output schema (rule WF005) and that activation-command %TAG%
  /// placeholders resolve (rules WF009, WF010).
  std::vector<std::string> fields;
  int line = 0;  ///< 1-based line in the XML spec; 0 when built in memory
};

struct ActivityDef {
  std::string tag;
  AlgebraicOp op = AlgebraicOp::Map;
  std::string template_dir;
  std::string activation_command;  ///< template text with %TAGS%
  std::vector<RelationDef> relations;
  int line = 0;  ///< 1-based line in the XML spec; 0 when built in memory

  const RelationDef* input_relation() const;
  const RelationDef* output_relation() const;
};

struct DatabaseInfo {
  std::string name = "scicumulus";
  std::string server = "localhost";
  int port = 5432;
};

struct WorkflowDef {
  std::string tag;
  std::string description;
  std::string exec_tag;
  std::string expdir;
  DatabaseInfo database;
  std::vector<ActivityDef> activities;

  const ActivityDef& activity(std::string_view tag) const;  ///< throws
  bool has_activity(std::string_view tag) const;

  /// Index of the activity that produces `relation_name`, or -1. Used to
  /// derive the dataflow DAG from relation wiring.
  int producer_of(std::string_view relation_name) const;

  /// Kahn's pass over the relation wiring: the indices of the activities
  /// that can run, in a valid execution order. An activity left out sits on
  /// or downstream of a cycle; one that consumes its own output is a cycle.
  std::vector<int> runnable_order() const;

  /// runnable_order(); throws InvalidStateError unless it holds every
  /// activity.
  std::vector<int> topological_order() const;
};

}  // namespace scidock::wf
