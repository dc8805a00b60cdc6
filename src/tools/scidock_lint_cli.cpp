// scidock-lint — static analyzer for SciCumulus workflow specifications
// and provenance SQL. Validates without executing: the workflow spec
// loader's checks (rules WF001..WF010) walk the XML spec's dataflow, and
// the SQL binder (SQL002..SQL007) resolves each query against an empty
// PROV-Wf or relation schema; this tool adds the parse (SQL001) and the
// `-- reconciles:` metric annotations (SQL008).
// The LD rules in the catalog are emitted by the *runtime* lock-order
// analyzer (scidock_cli --sync-report), not by this tool. Exit codes:
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

std::size_t lint_shipped_queries() {
  const sql::Database prov = core::query_schema("prov");
  const sql::Database rel = core::query_schema("rel");
  std::size_t findings = 0;
  for (const core::ShippedQuery& q : core::shipped_queries()) {
    findings += emit(lint::lint_query(q.sql, q.catalog == "rel" ? rel : prov,
                                      "query:" + q.name));
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
  const sql::Database schema = core::query_schema(catalog_name);
  std::size_t findings = 0;
  for (const std::string& file : files) {
    std::string text;
    if (!read_file(file, text)) {
      std::fprintf(stderr, "scidock-lint: cannot read %s\n", file.c_str());
      return 2;
    }
    // One statement per file; surrounding whitespace tolerated.
    findings += emit(lint::lint_query(trim(text), schema, file));
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
