#include "dock/engine.hpp"

#include "util/error.hpp"

namespace scidock::dock {

const Conformation& DockingResult::best() const {
  SCIDOCK_REQUIRE(!conformations.empty(), "docking result has no conformations");
  return conformations.front();
}

double DockingResult::mean_feb() const {
  if (conformations.empty()) return 0.0;
  double acc = 0.0;
  for (const Conformation& c : conformations) acc += c.feb;
  return acc / static_cast<double>(conformations.size());
}

double DockingResult::mean_rmsd() const {
  if (conformations.empty()) return 0.0;
  double acc = 0.0;
  for (const Conformation& c : conformations) acc += c.rmsd_from_input;
  return acc / static_cast<double>(conformations.size());
}

}  // namespace scidock::dock
