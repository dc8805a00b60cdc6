#include "sql/value.hpp"

#include <charconv>
#include <cmath>
#include <compare>

#include "util/error.hpp"

namespace scidock::sql {

std::int64_t Value::as_int() const {
  if (is_int()) return std::get<std::int64_t>(v_);
  if (is_double()) return static_cast<std::int64_t>(std::get<double>(v_));
  throw InvalidStateError("SQL value is not numeric: " + to_string());
}

double Value::as_double() const {
  if (is_double()) return std::get<double>(v_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  throw InvalidStateError("SQL value is not numeric: " + to_string());
}

const std::string& Value::as_string() const {
  if (!is_string()) throw InvalidStateError("SQL value is not a string: " + to_string());
  return std::get<std::string>(v_);
}

std::strong_ordering Value::compare(const Value& other) const {
  auto rank = [](const Value& v) { return v.is_null() ? 0 : (v.is_numeric() ? 1 : 2); };
  if (rank(*this) != rank(other)) return rank(*this) <=> rank(other);
  if (is_null()) return std::strong_ordering::equal;
  if (is_numeric()) {
    const double a = as_double();
    const double b = other.as_double();
    // NaN equals NaN and sorts above every other number (PostgreSQL's
    // order), so the order stays total.
    if (std::isnan(a) || std::isnan(b)) return std::isnan(a) <=> std::isnan(b);
    if (a < b) return std::strong_ordering::less;
    if (a > b) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  const int c = as_string().compare(other.as_string());
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::string Value::to_string() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(std::get<std::int64_t>(v_));
  if (is_double()) {
    // The shortest text that reads back to the same double: fixed notation
    // from 1e-4 up to 1e15, scientific outside (the thresholds PostgreSQL
    // 12+ uses for a finite double precision), so a count-like sum prints
    // 100000, not 1e+05.
    const double d = std::get<double>(v_);
    const double mag = std::fabs(d);
    const auto format = mag == 0.0 || (mag >= 1e-4 && mag < 1e15)
                            ? std::chars_format::fixed
                            : std::chars_format::scientific;
    char buf[64];
    const auto end = std::to_chars(buf, buf + sizeof buf, d, format).ptr;
    return std::string(buf, end);
  }
  return std::get<std::string>(v_);
}

}  // namespace scidock::sql
