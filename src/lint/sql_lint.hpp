#pragma once

/// \file sql_lint.hpp
/// SQL semantic checker: reports what the SQL binder (sql/binder.hpp)
/// finds in a provenance or relation query, bound against an empty
/// database of the schema it runs on, without executing it. The binder
/// owns rules SQL002..SQL007: the failures the engine refuses before
/// reading a row (unknown tables, columns and functions, bad arities,
/// misplaced aggregates) and the ones it tolerates (ungrouped columns
/// evaluate on an arbitrary row; text where a number belongs). This
/// checker adds SQL001 (the parse), SQL008 (`-- reconciles:` metric
/// annotations against the registered scidock_* series) and a source
/// line for each finding. See lint::rule_catalog().

#include <string>
#include <string_view>

#include "lint/diagnostics.hpp"
#include "sql/table.hpp"

namespace scidock::lint {

/// Check one SQL statement against the tables of `schema` (their rows are
/// not read). `file` labels diagnostics.
Report lint_query(std::string_view sql, const sql::Database& schema,
                  std::string file = "");

}  // namespace scidock::lint
