#include "wf/relational.hpp"

#include <charconv>
#include <string>

#include "util/error.hpp"

namespace scidock::wf {

namespace {

/// Best-effort typing of a relation cell for SQL use. A cell becomes
/// numeric only when the conversion *round-trips*: ligand het codes like
/// "042" (leading zero) or "0E6" (reads as 0x10^6 in scientific notation)
/// must stay text or GROUP BY ligand would merge distinct codes.
sql::Value to_value(const std::string& text) {
  if (text.empty()) return sql::Value(text);
  // Integer?
  {
    std::int64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec == std::errc{} && ptr == text.data() + text.size() &&
        std::to_string(v) == text) {
      return sql::Value(v);
    }
  }
  // Double? (plain decimal notation only, and it must round-trip)
  {
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec == std::errc{} && ptr == text.data() + text.size() &&
        text.find_first_of("eE") == std::string::npos &&
        text.find('.') != std::string::npos) {
      return sql::Value(v);
    }
  }
  return sql::Value(text);
}

}  // namespace

sql::Table& to_sql_table(const Relation& relation, sql::Database& db,
                         std::string_view name) {
  const std::vector<std::string>& fields = relation.field_names();
  sql::Table& table =
      db.create_table(std::string(name), {fields.begin(), fields.end()});
  for (const Tuple& t : relation.tuples()) {
    sql::Row row;
    row.reserve(relation.field_names().size());
    for (const std::string& field : relation.field_names()) {
      row.push_back(to_value(t.require(field)));
    }
    table.insert(std::move(row));
  }
  return table;
}

Relation from_result_set(const sql::ResultSet& rs) {
  Relation out{rs.columns};
  for (const sql::Row& row : rs.rows) {
    Tuple t;
    for (std::size_t c = 0; c < rs.columns.size(); ++c) {
      t.set(rs.columns[c], row[c].to_string());
    }
    out.add(std::move(t));
  }
  return out;
}

Relation query_relation(const Relation& relation, std::string_view select_sql) {
  sql::Database db;
  to_sql_table(relation, db, "rel");
  sql::Engine engine(db);
  return from_result_set(engine.execute(select_sql));
}

}  // namespace scidock::wf
