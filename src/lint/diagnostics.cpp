#include "lint/diagnostics.hpp"

#include <utility>

namespace scidock::lint {

std::string_view to_string(Severity severity) {
  return severity == Severity::Error ? "error" : "warning";
}

std::string Diagnostic::format() const {
  std::string out;
  if (!file.empty()) {
    out += file;
    if (line > 0) out += ":" + std::to_string(line);
    out += ": ";
  } else if (line > 0) {
    out += "line " + std::to_string(line) + ": ";
  }
  out += std::string(to_string(severity)) + ": [" + rule + "] " + message;
  return out;
}

void Report::add(std::string rule, Severity severity, std::string file,
                 int line, std::string message) {
  diagnostics_.push_back(Diagnostic{std::move(rule), severity, std::move(file),
                                    line, std::move(message)});
}

std::size_t Report::error_count() const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == Severity::Error) ++n;
  }
  return n;
}

bool Report::has(std::string_view rule) const { return count(rule) > 0; }

std::size_t Report::count(std::string_view rule) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.rule == rule) ++n;
  }
  return n;
}

void Report::merge(Report other) {
  for (Diagnostic& d : other.diagnostics_) {
    diagnostics_.push_back(std::move(d));
  }
}

std::string Report::format() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += d.format() + "\n";
  }
  return out;
}

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      // ---- workflow algebra (XML specification) ----
      {"WF001", "malformed specification (XML syntax, missing required "
                "elements/attributes, bad database port)"},
      {"WF002", "unknown algebraic operator (not MAP, SPLIT_MAP, FILTER, "
                "REDUCE or SR_QUERY)"},
      {"WF003", "operator arity violation (input/output relation counts do "
                "not match the operator's signature)"},
      {"WF004", "duplicate definition (activity tag, relation within an "
                "activity, or two producers of one relation)"},
      {"WF005", "relation schema mismatch (consumer declares a field its "
                "producer's declared schema does not provide)"},
      {"WF006", "dataflow cycle (relation wiring is not a DAG)"},
      {"WF007", "dangling input relation (no producing activity and no "
                "filename to stage it from)"},
      {"WF008", "malformed activation template (unterminated or empty "
                "%TAG% placeholder)"},
      {"WF009", "unresolvable template tag (%TAG% names no field of the "
                "activity's declared input schema)"},
      {"WF010", "undeclared template tag (%TAG% used where the activity "
                "declares no input schema, and no activity in the workflow "
                "declares such a field)"},
      // ---- provenance SQL ----
      {"SQL001", "syntax error (statement does not parse)"},
      {"SQL002", "unknown table (not in the PROV-Wf or workflow-relation "
                 "catalog)"},
      {"SQL003", "unknown or ambiguous column reference"},
      {"SQL004", "unknown function, wrong argument count, or bad EXTRACT "
                 "field"},
      {"SQL005", "aggregate misuse (in WHERE or GROUP BY, nested, star on "
                 "a non-count aggregate, or wrong argument count)"},
      {"SQL006", "column not grouped (selected outside an aggregate while "
                 "GROUP BY is in effect)"},
      {"SQL007", "type mismatch (text where a number is required, or "
                 "comparing text with a number)"},
      {"SQL008", "unknown reconciled metric (a '-- reconciles: <name>' "
                 "annotation names a counter no scidock_* series "
                 "registers)"},
      // ---- runtime lock-discipline findings (lint/sync_lint bridge) ----
      {"LD001", "lock-order inversion (a new acquisition edge closes a "
                "cycle in the global lock-order graph)"},
      {"LD002", "pool self-wait (a worker thread blocks on work scheduled "
                "into its own pool)"},
      {"LD003", "blocking wait while holding a lock (CondVar::wait or an "
                "annotated wait entered with unrelated locks held)"},
      {"LD004", "long hold (a lock held past the configured threshold)"},
      {"LD005", "duplicate lock-class name (the same Mutex name registered "
                "from two declaration sites, which would merge unrelated "
                "order graphs)"},
      // ---- runtime happens-before findings (lint/sync_lint bridge) ----
      {"RC001", "write-write race (two writes to a tracked cell with no "
                "happens-before edge between them)"},
      {"RC002", "read-write race (a read and a write to a tracked cell "
                "with no happens-before edge between them)"},
      {"RC003", "unsynchronized publish (first cross-thread access to a "
                "tracked cell arrives with no ordering edge from its "
                "construction)"},
      {"RC004", "order-nondeterminism (a named reduction produced "
                "different per-key digests across runs or thread counts)"},
  };
  return catalog;
}

}  // namespace scidock::lint
