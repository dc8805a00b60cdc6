#include "lint/sync_lint.hpp"

#include <string>
#include <string_view>

#include "util/lockdep.hpp"
#include "util/racer.hpp"

namespace scidock::lint {

namespace {

template <typename Finding>
void add_finding(Report& report, std::string_view rule, const Finding& f) {
  std::string message = f.message;
  if (!f.details.empty()) {
    message += "\n";
    message += f.details;
  }
  report.add(std::string(rule),
             f.is_error ? Severity::Error : Severity::Warning, f.file, f.line,
             std::move(message));
}

}  // namespace

Report sync_report() {
  Report report;
  for (const lockdep::Finding& f : lockdep::findings()) {
    add_finding(report, lockdep::rule_id(f.kind), f);
  }
  for (const racer::Finding& f : racer::findings()) {
    add_finding(report, racer::rule_id(f.kind), f);
  }
  return report;
}

}  // namespace scidock::lint
