#include "lint/wf_lint.hpp"

#include <utility>

#include "wf/spec.hpp"

namespace scidock::lint {

Report lint_workflow_xml(std::string_view xml_text, std::string file) {
  Report report;
  for (wf::SpecFinding& f : wf::check_spec(xml_text)) {
    report.add_error(std::move(f.rule), file, f.line, std::move(f.message));
  }
  return report;
}

Report lint_workflow(const wf::WorkflowDef& def, std::string file) {
  return lint_workflow_xml(wf::save_spec(def), std::move(file));
}

}  // namespace scidock::lint
