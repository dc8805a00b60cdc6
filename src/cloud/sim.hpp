#pragma once

/// \file sim.hpp
/// Discrete-event simulation core: a clock plus an ordered event queue.
/// The simulated workflow executor, the elasticity controller and the
/// failure machinery all advance time through this object, which lets a
/// 12.5-day cloud execution replay in milliseconds of wall time.

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace scidock::cloud {

class Simulation {
 public:
  using EventFn = std::function<void()>;

  double now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now). Ties break in
  /// scheduling order so the simulation is deterministic.
  void schedule_at(double at, EventFn fn);
  /// Schedule `fn` after a relative delay.
  void schedule_after(double delay, EventFn fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Run until the queue empties or an event calls stop(). Returns the
  /// final clock value.
  double run();
  /// Run until the clock would pass `deadline`; pending later events stay
  /// queued.
  double run_until(double deadline);

  /// Make run() return once the current event finishes; the clock stays
  /// at that event's time and later events stay queued.
  void stop() { stopped_ = true; }

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::uint64_t events_processed() const { return processed_; }

 private:
  struct Event {
    double at;
    std::uint64_t seq;  ///< FIFO tie-break
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace scidock::cloud
