#pragma once

/// \file spec.hpp
/// XML (de)serialisation of workflow definitions in the SciCumulus format
/// shown in the paper's Figure 2:
///
///   <SciCumulus>
///     <database name="scicumulus" server="..." port="5432"/>
///     <SciCumulusWorkflow tag="SciDock" description="Docking"
///                         exectag="scidock" expdir="/root/scidock/">
///       <SciCumulusActivity tag="babel" type="MAP"
///                           templatedir="/root/scidock/template_babel/"
///                           activation="./experiment.cmd">
///         <Relation reltype="Input" name="rel_in_1" filename="input_1.txt"/>
///         <Relation reltype="Output" name="rel_out1" filename="output_1.txt"/>
///         <File filename="experiment.cmd" instrumented="true"/>
///       </SciCumulusActivity>
///     </SciCumulusWorkflow>
///   </SciCumulus>

#include <string>
#include <string_view>
#include <vector>

#include "wf/workflow.hpp"

namespace scidock::wf {

/// One violation of the workflow rules, tagged with a stable rule ID
/// (WF001..WF010, see lint::rule_catalog()).
struct SpecFinding {
  std::string rule;
  int line = 0;  ///< 1-based source line; 0 when unknown (XML syntax error)
  std::string message;
};

/// Check a SciCumulus XML specification against rules WF001..WF010 and
/// return every finding: document structure first, then one rule at a
/// time. Empty when the spec is valid.
std::vector<SpecFinding> check_spec(std::string_view xml_text);

/// Parse a SciCumulus XML specification. Throws ParseError naming the
/// first check_spec finding ("[WF003] line 5: ...") when it is invalid.
WorkflowDef load_spec(std::string_view xml_text);

/// Serialise back to the Figure 2 XML format (round-trips with load_spec).
std::string save_spec(const WorkflowDef& wf);

}  // namespace scidock::wf
