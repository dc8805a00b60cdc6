#include "lint/sql_lint.hpp"

#include <algorithm>
#include <vector>

#include "obs/obs.hpp"
#include "sql/binder.hpp"
#include "sql/lexer.hpp"
#include "sql/parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::lint {

namespace {

/// SQL008: `-- reconciles: <metric>[, <metric>...]` annotations mark a
/// shipped query as the provenance side of a metrics reconciliation
/// (DESIGN.md §9); each name must be a series some scidock_* registration
/// site actually creates (obs::known_metric_names()), otherwise the
/// reconciliation silently compares against a counter that is always 0.
/// The SQL lexer strips `--` comments, so annotations never affect
/// execution. Works on the raw text: by the time the parser runs the
/// comments are gone.
void check_reconcile_annotations(std::string_view sql, const std::string& file,
                                 Report& report) {
  const std::vector<std::string_view>& known = obs::known_metric_names();
  int line_no = 0;
  for (const std::string& raw : split(std::string(sql), '\n')) {
    ++line_no;
    const std::string_view line = trim(raw);
    constexpr std::string_view kPrefix = "-- reconciles:";
    if (line.substr(0, kPrefix.size()) != kPrefix) continue;
    for (const std::string& name : split(
             std::string(line.substr(kPrefix.size())), ',')) {
      const std::string_view metric = trim(name);
      if (metric.empty()) continue;
      if (std::find(known.begin(), known.end(), metric) == known.end()) {
        report.add_error(
            "SQL008", file, line_no,
            "'-- reconciles:' names metric '" + std::string(metric) +
                "' but no scidock_* series of that name is registered");
      }
    }
  }
}

/// Best-effort source line: the first identifier token spelled `ident`.
int line_of(const std::vector<sql::Token>& tokens, std::string_view ident) {
  for (const sql::Token& t : tokens) {
    if (t.kind == sql::TokenKind::Identifier && iequals(t.text, ident)) {
      return t.line;
    }
  }
  return 0;
}

}  // namespace

Report lint_query(std::string_view sql, const sql::Database& schema,
                  std::string file) {
  Report report;
  check_reconcile_annotations(sql, file, report);
  sql::Statement stmt;
  try {
    stmt = sql::parse_statement(sql);
  } catch (const Error& e) {
    report.add_error("SQL001", file, 0, e.what());
    return report;
  }
  const std::vector<sql::Token> tokens = sql::tokenize(sql);
  for (const sql::Finding& f : sql::bind(stmt, schema).findings) {
    report.add_error(f.rule, file, line_of(tokens, f.anchor), f.message);
  }
  return report;
}

}  // namespace scidock::lint
