#pragma once

/// \file wf_lint.hpp
/// Workflow algebra checker: statically validates a SciCumulus XML
/// workflow specification (paper Figure 2) without executing it. The rules
/// (WF001..WF010, see lint::rule_catalog()) live in wf::check_spec, which
/// wf::load_spec also applies; the linter reports every finding where
/// load_spec throws on the first.

#include <string>
#include <string_view>

#include "lint/diagnostics.hpp"
#include "wf/workflow.hpp"

namespace scidock::lint {

/// Lint an XML specification text. `file` labels diagnostics (use the
/// path the text came from, or "" / a pseudo-name for in-memory specs).
Report lint_workflow_xml(std::string_view xml_text, std::string file = "");

/// Lint an in-memory definition (used for the builtin SciDock workflow;
/// round-trips through save_spec so both paths share one checker).
Report lint_workflow(const wf::WorkflowDef& def, std::string file = "");

}  // namespace scidock::lint
