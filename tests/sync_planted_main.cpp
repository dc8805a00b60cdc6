// Planted fixtures for the sync-analysis × ThreadSanitizer cross-check
// (ci/check.sh stage tsan). Unlike racer_test.cpp — whose planted shapes
// are sequenced with real synchronisation so gtest stays TSan-clean —
// each race fixture here contains a REAL data race on a tracked object,
// and the inversion fixture a real lock-order inversion. Built with
// -DSCIDOCK_SYNC_ANALYSIS=ON and -fsanitize=thread, one process runs the
// analyzer and TSan: the analyzer must name the rule on stdout and TSan
// must print its own warning on stderr; the CI stage fails if either
// detector misses.
//
//   sync_planted ww         write-write race         -> RC001 + data race
//   sync_planted rw         read racing a write      -> RC002 + data race
//   sync_planted publish    relaxed-flag publication -> RC003 + data race
//   sync_planted inversion  A->B then B->A           -> LD001 +
//                                                       lock-order-inversion
//
// The races are benign in practice (torn int stores at worst) and the two
// lock orders run one after the other, so the process always reaches its
// report and exits 0 when the expected rule was found.

#include <atomic>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "util/lockdep.hpp"
#include "util/racer.hpp"
#include "util/thread_annotations.hpp"

namespace {

using scidock::lockdep::HazardKind;
using scidock::racer::ReportKind;

volatile int g_sink = 0;  // defeats dead-access elimination

/// Print both reports, then whether the analyzer found the planted rule.
int finish(bool found, std::string_view rule) {
  std::fputs(scidock::lockdep::format_report().c_str(), stdout);
  std::fputs(scidock::racer::format_report().c_str(), stdout);
  if (!scidock::sync::compiled_in()) {
    std::fputs("sync_planted: analyzers compiled out -- rebuild with "
               "-DSCIDOCK_SYNC_ANALYSIS=ON\n",
               stdout);
    return 2;
  }
  if (!found) {
    // Deliberately does not echo the rule ID: the CI grep must only
    // match when the analyzer itself reported it.
    std::fputs("sync_planted: expected report missing\n", stdout);
    return 1;
  }
  std::printf("sync_planted: flagged %s\n", std::string(rule).c_str());
  return 0;
}

int finish(ReportKind expected) {
  return finish(scidock::racer::finding_count(expected) > 0,
                scidock::racer::rule_id(expected));
}

/// RC001: two unsynchronized writer loops. The fork edge orders the
/// worker's *first* write (so it is a known accessor, not an RC003
/// publish); the loops then race for real. The post-join write is the
/// determinism backstop: even a schedule that never interleaved the
/// loops leaves it unordered for the racer (std::thread::join is not an
/// instrumented edge), while TSan is guaranteed its race by the loops.
int fixture_ww() {
  static int victim = 0;
  SCIDOCK_RACER_TRACK(victim, "planted.ww.victim");
  SCIDOCK_RACER_WRITE(victim);
  victim = 1;
  scidock::racer::TaskEdge edge = scidock::racer::on_task_spawn();
  std::atomic<bool> entered{false};
  std::thread t([&] {
    scidock::racer::TaskRun run(edge);
    SCIDOCK_RACER_WRITE(victim);
    victim = 2;  // ordered via the fork snapshot: no report here
    entered.store(true);
    for (int i = 0; i < 200000; ++i) {
      SCIDOCK_RACER_WRITE(victim);
      victim = i;  // REAL race with the loop below
    }
  });
  while (!entered.load()) std::this_thread::yield();
  for (int i = 0; i < 200000; ++i) {
    SCIDOCK_RACER_WRITE(victim);
    victim = -i;
  }
  t.join();
  SCIDOCK_RACER_WRITE(victim);  // backstop: unordered without a join edge
  victim = 0;
  g_sink = victim;
  return finish(ReportKind::kWriteWrite);
}

/// RC002: a reader loop racing a writer loop, same construction.
int fixture_rw() {
  static int victim = 0;
  SCIDOCK_RACER_TRACK(victim, "planted.rw.victim");
  SCIDOCK_RACER_WRITE(victim);
  victim = 1;
  scidock::racer::TaskEdge edge = scidock::racer::on_task_spawn();
  std::atomic<bool> entered{false};
  std::thread t([&] {
    scidock::racer::TaskRun run(edge);
    SCIDOCK_RACER_READ(victim);
    g_sink = victim;  // ordered: known accessor
    entered.store(true);
    int local = 0;
    for (int i = 0; i < 200000; ++i) {
      SCIDOCK_RACER_READ(victim);
      local += victim;  // REAL read racing the writes below
    }
    g_sink = local;
  });
  while (!entered.load()) std::this_thread::yield();
  for (int i = 0; i < 200000; ++i) {
    SCIDOCK_RACER_WRITE(victim);
    victim = i;
  }
  t.join();
  SCIDOCK_RACER_WRITE(victim);  // backstop vs the worker's last read
  victim = 0;
  g_sink = victim;
  return finish(ReportKind::kReadWrite);
}

/// RC003: the classic broken publication — payload handed to a waiting
/// thread through a *relaxed* atomic flag, which orders nothing. The
/// racer sees a first cross-thread access with no edge; TSan sees the
/// genuine race (relaxed operations establish no happens-before).
int fixture_publish() {
  static int payload = 0;
  std::atomic<bool> ready{false};
  int seen = 0;
  std::thread t([&] {
    while (!ready.load(std::memory_order_relaxed)) std::this_thread::yield();
    SCIDOCK_RACER_READ(payload);
    seen = payload;  // REAL race: the relaxed flag publishes nothing
  });
  SCIDOCK_RACER_TRACK(payload, "planted.publish.payload");
  SCIDOCK_RACER_WRITE(payload);
  payload = 42;
  ready.store(true, std::memory_order_relaxed);
  t.join();
  g_sink = seen;
  return finish(ReportKind::kUnsyncPublish);
}

/// LD001: two named locks taken in both orders, one order after the
/// other, so nothing ever blocks. Both detectors judge the lock graph,
/// not an actual deadlock: lockdep closes a cycle in its class order
/// graph, TSan's deadlock detector in its mutex graph.
int fixture_inversion() {
  scidock::Mutex a{"planted.inversion.a"};
  scidock::Mutex b{"planted.inversion.b"};
  {
    scidock::MutexLock la(a);
    scidock::MutexLock lb(b);
  }
  {
    scidock::MutexLock lb(b);
    scidock::MutexLock la(a);
  }
  return finish(
      scidock::lockdep::finding_count(HazardKind::kLockInversion) > 0,
      scidock::lockdep::rule_id(HazardKind::kLockInversion));
}

int usage() {
  std::fputs("usage: sync_planted <ww|rw|publish|inversion>\n", stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) return usage();
  const std::string_view fixture = argv[1];
  if (fixture == "ww") return fixture_ww();
  if (fixture == "rw") return fixture_rw();
  if (fixture == "publish") return fixture_publish();
  if (fixture == "inversion") return fixture_inversion();
  return usage();
}
