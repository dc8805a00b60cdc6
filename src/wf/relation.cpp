#include "wf/relation.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace scidock::wf {

void Tuple::set(std::string field, std::string value) {
  for (auto& [k, v] : fields_) {
    if (k == field) {
      v = std::move(value);
      return;
    }
  }
  fields_.emplace_back(std::move(field), std::move(value));
}

std::optional<std::string> Tuple::get(std::string_view field) const {
  for (const auto& [k, v] : fields_) {
    if (k == field) return v;
  }
  return std::nullopt;
}

const std::string& Tuple::require(std::string_view field) const {
  for (const auto& [k, v] : fields_) {
    if (k == field) return v;
  }
  throw NotFoundError("tuple field", field);
}

bool Tuple::has(std::string_view field) const {
  for (const auto& [k, v] : fields_) {
    if (k == field) return true;
  }
  return false;
}

double Tuple::get_double(std::string_view field, double fallback) const {
  const auto v = get(field);
  if (!v) return fallback;
  return parse_double(*v, "tuple field");
}

void Relation::add(Tuple tuple) {
  for (const std::string& f : field_names_) {
    SCIDOCK_REQUIRE(tuple.has(f), "tuple missing schema field '" + f + "'");
  }
  tuples_.push_back(std::move(tuple));
}

std::string Relation::to_file_text() const {
  std::string out = join(field_names_, "\t") + "\n";
  for (const Tuple& t : tuples_) {
    std::vector<std::string> cells;
    cells.reserve(field_names_.size());
    for (const std::string& f : field_names_) cells.push_back(t.require(f));
    out += join(cells, "\t") + "\n";
  }
  return out;
}

Relation Relation::from_file_text(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line)) throw ParseError("relation", "empty file");
  Relation rel{split(trim(line), '\t')};
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto cells = split(line, '\t');
    if (cells.size() != rel.field_names().size()) {
      throw ParseError("relation", "row width mismatch: " + line);
    }
    Tuple t;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      t.set(rel.field_names()[i], cells[i]);
    }
    rel.add(std::move(t));
  }
  return rel;
}

}  // namespace scidock::wf
