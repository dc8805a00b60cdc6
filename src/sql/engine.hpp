#pragma once

/// \file engine.hpp
/// SQL execution over a Database, or over shards of one: the statement is
/// bound first (sql/binder.hpp), then run as nested-loop joins with
/// conjunct push-down, grouping/aggregation, ordering and projection.
/// The paper's provenance queries (Query 1, Query 2, the Figure 5
/// histogram query) execute through this engine verbatim.

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

class Engine {
 public:
  /// One database: every statement kind runs against it.
  explicit Engine(Database& db) : shards_{&db} {}

  /// A database split into shards. A FROM entry naming one of the
  /// `partitioned` tables scans that table's rows in every shard, in
  /// shard order; any other table is read from shard 0, which holds every
  /// table (and binds the statement). With more than one shard only
  /// SELECT runs. The shards must stay valid, and unchanged by other
  /// threads, for the duration of each execute call.
  Engine(std::vector<Database*> shards, std::vector<std::string> partitioned);

  /// Parse, bind (sql/binder.hpp) and run one statement. A statement the
  /// binder refuses throws before any row is read: NotFoundError for an
  /// unknown table, column or function, InvalidStateError for anything
  /// else. SELECT returns its rows; CREATE/INSERT return an empty result,
  /// UPDATE/DELETE the affected-row count in a single cell.
  ResultSet execute(std::string_view sql);

 private:
  ResultSet run_select(const SelectStmt& stmt, const Bound& bound) const;

  std::vector<Database*> shards_;
  std::vector<std::string> partitioned_;
};

}  // namespace scidock::sql
