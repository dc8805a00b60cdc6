#pragma once

/// \file binder.hpp
/// Name resolution and checking for one parsed statement against the
/// schema of a Database, done once before any row is read. The binder
/// resolves every column reference to a (FROM entry, column) slot,
/// substitutes select-list aliases in ORDER BY, looks every call up in the
/// one function table (kFunctions, binder.cpp), and checks aggregate
/// placement, GROUP BY discipline and types against the declared column
/// types. Its findings are rules SQL002..SQL007 of lint::rule_catalog():
/// the engine refuses a statement with any SQL002..SQL005 finding, and
/// scidock-lint reports every finding.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sql/ast.hpp"
#include "sql/table.hpp"

namespace scidock::sql {

enum class FunctionId {
  Extract, Abs, Round, Floor, Ceil, Length, Upper, Lower, Coalesce, Substr,
  Min, Max, Sum, Avg, Count,
};

/// One entry of the function table: every SQL function the engine runs.
struct Function {
  std::string_view name;
  FunctionId id;
  std::size_t min_args;
  std::size_t max_args;
  /// Any: the arguments' common type (Any when they differ), or Real
  /// when the first argument must be numeric and that type is not Int.
  Type result;
  bool aggregate;
  unsigned numeric_args;  ///< bit i: argument i must be numeric
};

/// True if `e` calls an aggregate (min, max, sum, avg, count).
bool is_aggregate(const Expr& e);
/// True if `e` or any subexpression calls an aggregate.
bool contains_aggregate(const Expr& e);

struct Finding {
  std::string rule;     ///< "SQL002" .. "SQL007"
  std::string anchor;   ///< an identifier of the statement to place it by
  std::string message;
  /// The unknown table, column or function (SQL002..SQL004); empty for
  /// every other finding.
  std::string missing;
};

/// What the binder resolved. It also annotates the statement's
/// expressions in place (Expr::binding, slot, function), so the
/// statement must outlive this.
struct Bound {
  std::vector<const Table*> tables;  ///< SELECT: one per FROM entry
  /// INSERT column list or UPDATE SET targets, as column indexes.
  std::vector<std::size_t> targets;
  /// ORDER BY keys with select-list aliases replaced by their expression.
  std::vector<const Expr*> order_by;
  bool grouped = false;  ///< aggregates in the select list, or a GROUP BY
  std::vector<Finding> findings;  ///< in clause order

  /// Throws the error the engine raises for the first SQL002..SQL005
  /// finding: NotFoundError for an unknown table, column or function,
  /// InvalidStateError for anything else. SQL006 and SQL007 do not stop
  /// execution.
  void require_executable() const;
};

Bound bind(Statement& stmt, const Database& db);

}  // namespace scidock::sql
