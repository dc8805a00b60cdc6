// scidock-lint — static analyzer for SciCumulus workflow specifications
// and provenance SQL. Validates without executing: the workflow algebra
// checker (rules WF001..WF010) walks the XML spec's dataflow, the SQL
// semantic checker (SQL001..SQL008) resolves queries against the PROV-Wf
// or relation catalog and validates `-- reconciles:` metric annotations.
// The LD and RC rules in the catalog are emitted by the *runtime* sync
// analyzers (scidock_cli --sync-report), not by this tool. Exit codes:
// 0 = clean, 1 = diagnostics found, 2 = usage / I/O error.
//
//   scidock-lint workflow <spec.xml> [more.xml ...]
//   scidock-lint workflow --builtin       # the builtin SciDock workflow
//   scidock-lint query <file.sql> [--catalog prov|rel]
//   scidock-lint queries                  # every shipped query
//   scidock-lint all                      # builtin workflow + all queries
//   scidock-lint rules                    # print the rule catalog

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/diagnostics.hpp"
#include "lint/sql_lint.hpp"
#include "lint/wf_lint.hpp"
#include "scidock/analysis.hpp"
#include "scidock/scidock.hpp"
#include "util/strings.hpp"

namespace {

using namespace scidock;

int usage() {
  std::fprintf(stderr,
               "usage: scidock-lint workflow (<spec.xml> ... | --builtin)\n"
               "       scidock-lint query <file.sql> [--catalog prov|rel]\n"
               "       scidock-lint queries\n"
               "       scidock-lint all\n"
               "       scidock-lint rules\n");
  return 2;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Print a report; returns the number of diagnostics.
std::size_t emit(const lint::Report& report) {
  for (const lint::Diagnostic& d : report.diagnostics()) {
    std::fprintf(stderr, "%s\n", d.format().c_str());
  }
  return report.diagnostics().size();
}

lint::Catalog relation_catalog_from_schema() {
  std::vector<lint::CatalogColumn> columns;
  for (const core::RelationField& f : core::output_relation_schema()) {
    lint::ColType type = lint::ColType::Text;
    if (f.kind == core::FieldKind::Int) type = lint::ColType::Int;
    if (f.kind == core::FieldKind::Real) type = lint::ColType::Real;
    columns.push_back(lint::CatalogColumn{f.name, type});
  }
  return lint::relation_catalog(std::move(columns));
}

std::size_t lint_shipped_queries() {
  const lint::Catalog rel_catalog = relation_catalog_from_schema();
  std::size_t findings = 0;
  for (const core::ShippedQuery& q : core::shipped_queries()) {
    const lint::Catalog& catalog =
        q.catalog == "rel" ? rel_catalog : lint::prov_wf_catalog();
    findings += emit(lint::lint_query(q.sql, catalog, "query:" + q.name));
  }
  return findings;
}

std::size_t lint_builtin_workflow() {
  const wf::WorkflowDef def = core::scidock_workflow_def(core::ScidockOptions{});
  return emit(lint::lint_workflow(def, "workflow:builtin"));
}

int cmd_workflow(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::size_t findings = 0;
  for (const std::string& arg : args) {
    if (arg == "--builtin") {
      findings += lint_builtin_workflow();
      continue;
    }
    std::string text;
    if (!read_file(arg, text)) {
      std::fprintf(stderr, "scidock-lint: cannot read %s\n", arg.c_str());
      return 2;
    }
    findings += emit(lint::lint_workflow_xml(text, arg));
  }
  return findings == 0 ? 0 : 1;
}

int cmd_query(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  std::string catalog_name = "prov";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--catalog" && i + 1 < args.size()) {
      catalog_name = args[++i];
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.empty() || (catalog_name != "prov" && catalog_name != "rel")) {
    return usage();
  }
  const lint::Catalog rel_catalog = relation_catalog_from_schema();
  const lint::Catalog& catalog =
      catalog_name == "rel" ? rel_catalog : lint::prov_wf_catalog();
  std::size_t findings = 0;
  for (const std::string& file : files) {
    std::string text;
    if (!read_file(file, text)) {
      std::fprintf(stderr, "scidock-lint: cannot read %s\n", file.c_str());
      return 2;
    }
    // One statement per file; surrounding whitespace tolerated.
    findings += emit(lint::lint_query(trim(text), catalog, file));
  }
  return findings == 0 ? 0 : 1;
}

int cmd_rules() {
  for (const lint::RuleInfo& rule : lint::rule_catalog()) {
    std::printf("%-7s %s\n", std::string(rule.id).c_str(),
                std::string(rule.summary).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string cmd = args.front();
  args.erase(args.begin());

  if (cmd == "workflow") return cmd_workflow(args);
  if (cmd == "query") return cmd_query(args);
  if (cmd == "queries") return lint_shipped_queries() == 0 ? 0 : 1;
  if (cmd == "rules") return cmd_rules();
  if (cmd == "all") {
    std::size_t findings = lint_builtin_workflow();
    findings += lint_shipped_queries();
    if (findings == 0) {
      std::printf("scidock-lint: builtin workflow and %zu shipped queries "
                  "are clean\n",
                  core::shipped_queries().size());
      return 0;
    }
    return 1;
  }
  return usage();
}
