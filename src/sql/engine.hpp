#pragma once

/// \file engine.hpp
/// SQL execution over a Database: the statement is bound first
/// (sql/binder.hpp), then run as nested-loop joins with conjunct
/// push-down, grouping/aggregation, ordering and projection. The paper's
/// provenance queries (Query 1, Query 2, the Figure 5 histogram query)
/// execute through this engine verbatim.

#include <string>
#include <string_view>
#include <vector>

#include "sql/ast.hpp"
#include "sql/binder.hpp"
#include "sql/table.hpp"

namespace scidock::sql {

struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  /// Aligned-columns rendering, header + separator + rows (the style of
  /// the paper's Figure 10/11 screenshots).
  std::string to_text() const;
};

/// Result-column name the engine derives for a select item: the alias if
/// present, else the column / call name, else the expression text.
/// Exposed for the sharded executor (sql/sharded.hpp), which must emit
/// headers identical to a single-shard run.
std::string derive_select_column_name(const SelectItem& item);

class Engine {
 public:
  explicit Engine(Database& db) : db_(db) {}

  /// Parse, bind (sql/binder.hpp) and run one statement. A statement the
  /// binder refuses throws before any row is read: NotFoundError for an
  /// unknown table, column or function, InvalidStateError for anything
  /// else. SELECT returns its rows; CREATE/INSERT return an empty result,
  /// UPDATE/DELETE the affected-row count in a single cell.
  ResultSet execute(std::string_view sql);

  /// Bind `stmt` in place and run it.
  ResultSet execute_select(SelectStmt& stmt);

 private:
  static ResultSet run_select(const SelectStmt& stmt, const Bound& bound);

  Database& db_;
};

}  // namespace scidock::sql
