#pragma once

/// \file trace.hpp
/// TraceRecorder: structured, nested execution spans with thread ids and
/// monotonic timestamps, exported as Chrome `chrome://tracing` JSON (load
/// the file via the "Load" button or `chrome://tracing`, or ui.perfetto.dev)
/// and foldable into a compact in-memory span tree for tests.
///
/// Two timebases are supported by design:
///   - begin_span()/end_span() stamp events with the recorder's own
///     monotonic clock (microseconds since construction) and the calling
///     thread's dense id — the native executor's real-time spans;
///   - complete_span()/instant() take explicit timestamps and "thread"
///     ids — the simulated executor maps VM ids to trace rows and stamps
///     events with simulated seconds.
/// One recorder holds one timebase; do not mix real and simulated time in
/// the same recorder.
///
/// Cost model: recording appends one fixed-size record to a lock-sharded
/// buffer (shard chosen by thread id, so contention is rare). The buffer
/// grows in chunks that never move; names, categories, arg keys and
/// string arg values are interned per shard, and integer args stay
/// integers. Nothing is formatted until export (events(), to_chrome_json()).
/// A null recorder pointer disables everything — instrumentation sites
/// guard with `if (trace)` or use ScopedSpan which accepts nullptr.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scidock::obs {

/// Dense sequential id of the calling OS thread (first call assigns).
int current_thread_id();

using TraceArgs = std::vector<std::pair<std::string, std::string>>;

/// One argument as complete_span()/instant() take it: a key and a string
/// or an integer value. The recorder copies it during the call; an integer
/// is formatted (as std::to_string does) only at export, so a hot caller
/// passes its integers as they are.
struct TraceArg {
  TraceArg(std::string_view k, std::string_view v) : key(k), text(v) {}
  TraceArg(std::string_view k, long long v)
      : key(k), number(v), is_number(true) {}

  std::string_view key;
  std::string_view text;
  long long number = 0;
  bool is_number = false;
};

struct TraceEvent {
  /// Chrome phases: B/E (nested begin/end), X (complete, with duration),
  /// i (instant).
  enum class Phase { Begin, End, Complete, Instant };

  std::string name;
  std::string category;
  Phase phase = Phase::Instant;
  double ts_us = 0.0;        ///< microseconds (monotonic or simulated)
  double dur_us = 0.0;       ///< Complete only
  long long tid = 0;         ///< thread id (native) or VM id (sim)
  std::uint64_t span_id = 0; ///< pairs Begin/End; unique per span; 0 = none
  std::uint64_t seq = 0;     ///< global record order (ties in ts)
  TraceArgs args;
};

/// One reconstructed span (Begin..End pair or a Complete event) with its
/// nested children — the compact in-memory tree the golden-trace tests
/// assert against.
struct SpanNode {
  std::string name;
  std::string category;
  double start_us = 0.0;
  double end_us = 0.0;
  long long tid = 0;
  std::uint64_t span_id = 0;
  TraceArgs args;            ///< Begin args followed by End args
  std::vector<SpanNode> children;
};

struct SpanTree {
  /// Top-level spans per thread/VM row, in start order.
  std::vector<std::pair<long long, std::vector<SpanNode>>> roots_by_tid;
  /// Structural violations: orphan End, End out of Begin order, Begin
  /// never closed. Empty = well-nested.
  std::vector<std::string> errors;

  std::size_t span_count() const;  ///< total spans across all rows
  const std::vector<SpanNode>* roots_for(long long tid) const;
};

/// Fold a (ts, seq)-ordered event list into nested spans. Instant events
/// do not create spans; Complete events become childless spans.
SpanTree build_span_tree(const std::vector<TraceEvent>& events);

/// Minimal parser for the Chrome JSON this module emits (object with a
/// "traceEvents" array of flat event objects). Throws ParseError on
/// malformed input. Exists so tests — and the CLI's self-check — can
/// prove the export round-trips.
std::vector<TraceEvent> parse_chrome_trace(std::string_view json);

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Microseconds of monotonic time since construction.
  double now_us() const;

  /// Open a nested span on the calling thread; returns its span id.
  std::uint64_t begin_span(std::string_view name, std::string_view category,
                           TraceArgs args = {});
  /// Close the span (must be called on the opening thread for the tree to
  /// stay well-nested). `args` lands on the End event (e.g. outcome).
  void end_span(std::uint64_t span_id, TraceArgs args = {});

  /// Record a span with explicit timing (simulated executors).
  void complete_span(std::string_view name, std::string_view category,
                     double ts_us, double dur_us, long long tid,
                     std::initializer_list<TraceArg> args = {});
  /// Point event with explicit timing; `tid` < 0 uses the calling thread
  /// and the recorder clock.
  void instant(std::string_view name, std::string_view category,
               double ts_us = -1.0, long long tid = -1,
               std::initializer_list<TraceArg> args = {});

  std::size_t event_count() const;
  /// All events merged across shards, sorted by (ts, record order).
  std::vector<TraceEvent> events() const;
  /// Chrome JSON: {"traceEvents":[...]}.
  std::string to_chrome_json() const;

 private:
  struct Head;   ///< an event's fixed fields
  struct Shard;  ///< a lock, an intern table and the compact records
  template <class Args>
  void record(const Head& head, const Args& args);

  static constexpr std::size_t kShards = 16;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> next_span_id_{1};
  std::atomic<std::uint64_t> next_seq_{0};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: opens on construction, closes on destruction. Null recorder
/// = zero work. `set_arg` accumulates args attached to the End event.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, std::string_view name,
             std::string_view category, TraceArgs args = {})
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      id_ = recorder_->begin_span(name, category, std::move(args));
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end_span(id_, std::move(end_args_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_arg(std::string key, std::string value) {
    if (recorder_ != nullptr) {
      end_args_.emplace_back(std::move(key), std::move(value));
    }
  }

 private:
  TraceRecorder* recorder_;
  std::uint64_t id_ = 0;
  TraceArgs end_args_;
};

}  // namespace scidock::obs

/// Scoped instrumentation macro: traces the enclosing block. `recorder`
/// is a TraceRecorder* and may be null (no-op).
#define SCIDOCK_OBS_CONCAT_INNER(a, b) a##b
#define SCIDOCK_OBS_CONCAT(a, b) SCIDOCK_OBS_CONCAT_INNER(a, b)
#define SCIDOCK_TRACE_SPAN(recorder, name, category)        \
  ::scidock::obs::ScopedSpan SCIDOCK_OBS_CONCAT(            \
      scidock_scoped_span_, __LINE__)((recorder), (name), (category))
