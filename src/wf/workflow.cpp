#include "wf/workflow.hpp"

#include <deque>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::wf {

std::string_view to_string(AlgebraicOp op) {
  switch (op) {
    case AlgebraicOp::Map: return "MAP";
    case AlgebraicOp::SplitMap: return "SPLIT_MAP";
    case AlgebraicOp::Filter: return "FILTER";
    case AlgebraicOp::Reduce: return "REDUCE";
    case AlgebraicOp::SRQuery: return "SR_QUERY";
  }
  return "?";
}

AlgebraicOp algebraic_op_from(std::string_view name) {
  if (iequals(name, "MAP")) return AlgebraicOp::Map;
  if (iequals(name, "SPLIT_MAP")) return AlgebraicOp::SplitMap;
  if (iequals(name, "FILTER")) return AlgebraicOp::Filter;
  if (iequals(name, "REDUCE")) return AlgebraicOp::Reduce;
  if (iequals(name, "SR_QUERY")) return AlgebraicOp::SRQuery;
  throw NotFoundError("algebraic operator", name);
}

const RelationDef* ActivityDef::input_relation() const {
  for (const RelationDef& r : relations) {
    if (r.is_input) return &r;
  }
  return nullptr;
}

const RelationDef* ActivityDef::output_relation() const {
  for (const RelationDef& r : relations) {
    if (!r.is_input) return &r;
  }
  return nullptr;
}

const ActivityDef& WorkflowDef::activity(std::string_view activity_tag) const {
  for (const ActivityDef& a : activities) {
    if (a.tag == activity_tag) return a;
  }
  throw NotFoundError("activity", activity_tag);
}

bool WorkflowDef::has_activity(std::string_view activity_tag) const {
  for (const ActivityDef& a : activities) {
    if (a.tag == activity_tag) return true;
  }
  return false;
}

int WorkflowDef::producer_of(std::string_view relation_name) const {
  for (std::size_t i = 0; i < activities.size(); ++i) {
    for (const RelationDef& r : activities[i].relations) {
      if (!r.is_input && r.name == relation_name) return static_cast<int>(i);
    }
  }
  return -1;
}

std::vector<int> WorkflowDef::runnable_order() const {
  const std::size_t n = activities.size();
  std::vector<std::vector<int>> consumers(n);
  std::vector<int> in_degree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const RelationDef& r : activities[i].relations) {
      if (!r.is_input) continue;
      const int producer = producer_of(r.name);
      if (producer >= 0) {
        consumers[static_cast<std::size_t>(producer)].push_back(
            static_cast<int>(i));
        ++in_degree[i];
      }
    }
  }
  std::deque<int> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) ready.push_back(static_cast<int>(i));
  }
  std::vector<int> order;
  while (!ready.empty()) {
    const int u = ready.front();
    ready.pop_front();
    order.push_back(u);
    for (int v : consumers[static_cast<std::size_t>(u)]) {
      if (--in_degree[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
    }
  }
  return order;
}

std::vector<int> WorkflowDef::topological_order() const {
  std::vector<int> order = runnable_order();
  SCIDOCK_REQUIRE(order.size() == activities.size(),
                  "workflow relation wiring contains a cycle");
  return order;
}

}  // namespace scidock::wf
