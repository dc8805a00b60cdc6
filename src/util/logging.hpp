#pragma once

/// \file logging.hpp
/// The warning sink. Thread-safe; writes whole lines to stderr.

#include <string>

#include "util/strings.hpp"  // strformat, used by SCIDOCK_LOG_WARN

namespace scidock {

/// Core sink; prefer SCIDOCK_LOG_WARN, which formats its arguments.
void log_warning(const std::string& message);

}  // namespace scidock

#define SCIDOCK_LOG_WARN(...) ::scidock::log_warning(::scidock::strformat(__VA_ARGS__))
