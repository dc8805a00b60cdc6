#pragma once

/// \file value.hpp
/// The dynamically-typed cell value of the SQL engine. NULL, 64-bit
/// integers, doubles and strings cover everything the PROV-Wf schema
/// stores (timestamps are doubles: seconds since the experiment epoch).

#include <cstdint>
#include <string>
#include <variant>

namespace scidock::sql {

struct Null {
  bool operator==(const Null&) const = default;
};

class Value {
 public:
  Value() : v_(Null{}) {}
  Value(Null) : v_(Null{}) {}
  Value(std::int64_t i) : v_(i) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(long long i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::size_t i) : v_(static_cast<std::int64_t>(i)) {}
  Value(double d) : v_(d) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(const char* s) : v_(std::string(s)) {}

  bool is_null() const { return std::holds_alternative<Null>(v_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_numeric() const { return is_int() || is_double(); }

  std::int64_t as_int() const;
  double as_double() const;          ///< numeric coercion (int -> double)
  const std::string& as_string() const;

  /// SQL three-valued comparison is handled by the engine; this is a total
  /// order for ORDER BY / GROUP BY (NULL < numbers < strings). Numbers
  /// compare by value across int and double; NaN equals NaN and sorts
  /// above every other number.
  std::strong_ordering compare(const Value& other) const;
  bool operator==(const Value& other) const { return compare(other) == std::strong_ordering::equal; }

  /// Render as SQL text (for result printing).
  std::string to_string() const;

 private:
  std::variant<Null, std::int64_t, double, std::string> v_;
};

}  // namespace scidock::sql
