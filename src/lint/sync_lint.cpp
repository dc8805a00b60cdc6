#include "lint/sync_lint.hpp"

#include <string>

#include "util/lockdep.hpp"

namespace scidock::lint {

Report sync_report() {
  Report report;
  for (const lockdep::Finding& f : lockdep::findings()) {
    std::string message = f.message;
    if (!f.details.empty()) {
      message += "\n";
      message += f.details;
    }
    report.add(std::string(lockdep::rule_id(f.kind)),
               f.is_error ? Severity::Error : Severity::Warning, f.file,
               f.line, std::move(message));
  }
  return report;
}

}  // namespace scidock::lint
