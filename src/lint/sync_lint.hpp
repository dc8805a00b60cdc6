#pragma once

/// \file sync_lint.hpp
/// Bridge from the runtime lock-order analyzer (util/lockdep) into the
/// scidock-lint diagnostic machinery: each finding becomes a Diagnostic
/// with its stable rule ID (LD001..LD005, see lint::rule_catalog()), so CI
/// gates, the CLI's --sync-report and the tests all speak the same format
/// as the static rules.

#include "lint/diagnostics.hpp"

namespace scidock::lint {

/// Convert every finding lockdep has accumulated so far into one Report
/// (empty when compiled out or nothing was found). The multi-line
/// evidence (cycles and call sites) is appended to each message so a
/// formatted diagnostic is self-contained.
Report sync_report();

}  // namespace scidock::lint
