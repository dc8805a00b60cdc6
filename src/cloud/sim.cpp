#include "cloud/sim.hpp"

#include "util/error.hpp"

namespace scidock::cloud {

void Simulation::schedule_at(double at, EventFn fn) {
  SCIDOCK_REQUIRE(at >= now_, "cannot schedule an event in the past");
  queue_.push(Event{at, next_seq_++, std::move(fn)});
}

double Simulation::run() {
  while (!queue_.empty() && !stopped_) {
    // The event function may schedule more events; copy out first.
    Event event = queue_.top();
    queue_.pop();
    now_ = event.at;
    ++processed_;
    event.fn();
  }
  return now_;
}

double Simulation::run_until(double deadline) {
  while (!queue_.empty() && queue_.top().at <= deadline) {
    Event event = queue_.top();
    queue_.pop();
    now_ = event.at;
    ++processed_;
    event.fn();
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace scidock::cloud
