#pragma once

/// \file table.hpp
/// In-memory relational storage: tables of Value rows inside a Database.
/// This is the PostgreSQL stand-in behind the provenance repository.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sql/value.hpp"

namespace scidock::sql {

using Row = std::vector<Value>;

/// Declared column type. The binder (sql/binder.hpp) infers expression
/// types from it; Any is a column nothing declares a type for (CREATE
/// TABLE, a workflow relation loaded as a table).
enum class Type { Any, Int, Real, Text };

std::string_view to_string(Type type);

struct Column {
  Column(std::string column_name, Type column_type = Type::Any)
      : name(std::move(column_name)), type(column_type) {}
  Column(const char* column_name, Type column_type = Type::Any)
      : Column(std::string(column_name), column_type) {}

  std::string name;
  Type type;
};

class Table {
 public:
  Table(std::string name, std::vector<Column> columns);

  const std::string& name() const { return name_; }
  const std::vector<Column>& columns() const { return columns_; }
  int column_index(std::string_view column) const;  ///< -1 if absent

  void insert(Row row);
  const std::vector<Row>& rows() const { return rows_; }
  /// In-place mutation access (used by the provenance store's
  /// end-of-activation updates; the engine itself never mutates).
  std::vector<Row>& mutable_rows() { return rows_; }
  std::size_t row_count() const { return rows_.size(); }

  /// Remove rows for which `pred(row)` is true; returns count removed.
  template <typename Pred>
  std::size_t erase_if(Pred&& pred) {
    const std::size_t before = rows_.size();
    std::erase_if(rows_, pred);
    return before - rows_.size();
  }

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::vector<Row> rows_;
};

class Database {
 public:
  /// Creates an empty table; throws InvalidStateError on duplicate name.
  Table& create_table(std::string name, std::vector<Column> columns);
  bool has_table(std::string_view name) const;
  Table& table(std::string_view name);              ///< throws NotFoundError
  const Table& table(std::string_view name) const;  ///< throws NotFoundError
  void drop_table(std::string_view name);
  std::vector<std::string> table_names() const;

 private:
  std::vector<Table> tables_;
};

}  // namespace scidock::sql
