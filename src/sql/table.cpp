#include "sql/table.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::sql {

std::string_view to_string(Type type) {
  switch (type) {
    case Type::Any: return "?";
    case Type::Int: return "int";
    case Type::Real: return "real";
    case Type::Text: return "text";
  }
  return "?";
}

Table::Table(std::string name, std::vector<Column> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {
  SCIDOCK_REQUIRE(!columns_.empty(), "table must have at least one column");
}

int Table::column_index(std::string_view column) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (iequals(columns_[i].name, column)) return static_cast<int>(i);
  }
  return -1;
}

void Table::insert(Row row) {
  SCIDOCK_REQUIRE(row.size() == columns_.size(),
                  "row width does not match table '" + name_ + "'");
  rows_.push_back(std::move(row));
}

Table& Database::create_table(std::string name, std::vector<Column> columns) {
  if (has_table(name)) {
    throw InvalidStateError("table '" + name + "' already exists");
  }
  tables_.emplace_back(std::move(name), std::move(columns));
  return tables_.back();
}

bool Database::has_table(std::string_view name) const {
  return std::any_of(tables_.begin(), tables_.end(),
                     [name](const Table& t) { return iequals(t.name(), name); });
}

Table& Database::table(std::string_view name) {
  for (Table& t : tables_) {
    if (iequals(t.name(), name)) return t;
  }
  throw NotFoundError("table", name);
}

const Table& Database::table(std::string_view name) const {
  for (const Table& t : tables_) {
    if (iequals(t.name(), name)) return t;
  }
  throw NotFoundError("table", name);
}

void Database::drop_table(std::string_view name) {
  const auto it = std::find_if(tables_.begin(), tables_.end(), [name](const Table& t) {
    return iequals(t.name(), name);
  });
  if (it == tables_.end()) throw NotFoundError("table", name);
  tables_.erase(it);
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const Table& t : tables_) out.push_back(t.name());
  return out;
}

}  // namespace scidock::sql
