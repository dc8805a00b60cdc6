#pragma once

/// \file sync_lint.hpp
/// Bridge from the runtime synchronisation analyzers (util/lockdep and
/// util/racer, fed by util/sync_events.hpp) into the scidock-lint
/// diagnostic machinery: each finding becomes a Diagnostic with its
/// stable rule ID (LD001..LD005, RC001..RC004, see lint::rule_catalog()),
/// so CI gates, the CLI's --sync-report and the tests all speak the same
/// format as the static rules.

#include "lint/diagnostics.hpp"

namespace scidock::lint {

/// Convert every finding both analyzers have accumulated so far into one
/// Report, lockdep's first (empty when compiled out or nothing was
/// found). The multi-line evidence (cycles and call sites, both access
/// sites and the missing edge) is appended to each message so a
/// formatted diagnostic is self-contained.
Report sync_report();

}  // namespace scidock::lint
