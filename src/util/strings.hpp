#pragma once

/// \file strings.hpp
/// Small string utilities used across parsers and report writers.

#include <string>
#include <string_view>
#include <vector>

namespace scidock {

/// Remove leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a single delimiter character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Split on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

/// Case-insensitive equality for ASCII.
bool iequals(std::string_view a, std::string_view b);

std::string to_upper(std::string_view s);
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Parse helpers that throw ParseError with context on failure.
double parse_double(std::string_view s, std::string_view context = "number");
/// parse_double that also rejects nan and inf: for coordinates, charges and
/// box geometry, where one non-finite value poisons every sum it enters.
double parse_finite_double(std::string_view s,
                           std::string_view context = "number");
long long parse_int(std::string_view s, std::string_view context = "integer");

/// Replace every occurrence of `from` with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-width substring of a line (PDB-style column extraction); returns a
/// trimmed view, tolerating lines shorter than `start + len`.
std::string_view fixed_columns(std::string_view line, std::size_t start,
                               std::size_t len);

/// Render seconds as a compact human string, e.g. "12.5 d", "11.9 h", "42 s".
std::string human_duration(double seconds);

/// Join items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

}  // namespace scidock
