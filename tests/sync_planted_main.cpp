// Planted fixtures for the ThreadSanitizer stage of ci/check.sh. Each race
// fixture contains a REAL data race, and the inversion fixture a real
// lock-order inversion. Built with -DSCIDOCK_SYNC_ANALYSIS=ON and
// -fsanitize=thread, the stage requires TSan to print its warning on
// stderr for every fixture, and lockdep to name LD001 on stdout for the
// inversion; the stage fails if either detector misses.
//
//   sync_planted ww         write-write race         -> TSan data race
//   sync_planted rw         read racing a write      -> TSan data race
//   sync_planted publish    relaxed-flag publication -> TSan data race
//   sync_planted inversion  A->B then B->A           -> LD001 + TSan
//                                                       lock-order-inversion
//
// The races are benign in practice (torn int stores at worst) and the two
// lock orders run one after the other, so the process always reaches its
// report and exits 0 (the inversion: when lockdep found it).

#include <atomic>
#include <cstdio>
#include <string_view>
#include <thread>

#include "util/lockdep.hpp"
#include "util/thread_annotations.hpp"

namespace {

using scidock::lockdep::HazardKind;

// Every planted victim is volatile so that each loop iteration really
// loads or stores it: a plain int lets the compiler collapse a loop into
// one access and move it across the handshake, hiding the race.
volatile int g_sink = 0;

int planted(const char* fixture) {
  std::printf("sync_planted: %s race planted; ThreadSanitizer judges it\n",
              fixture);
  return 0;
}

/// Two unsynchronized writer loops. The handshake only makes the loops
/// overlap in time; it orders nothing after it.
int fixture_ww() {
  static volatile int victim = 0;
  std::atomic<bool> entered{false};
  std::thread t([&] {
    entered.store(true);
    for (int i = 0; i < 200000; ++i) victim = i;  // REAL race
  });
  while (!entered.load()) std::this_thread::yield();
  for (int i = 0; i < 200000; ++i) victim = -i;
  t.join();
  g_sink = victim;
  return planted("ww");
}

/// A reader loop racing a writer loop, same construction.
int fixture_rw() {
  static volatile int victim = 0;
  std::atomic<bool> entered{false};
  std::thread t([&] {
    entered.store(true);
    int local = 0;
    for (int i = 0; i < 200000; ++i) local += victim;  // REAL race
    g_sink = local;
  });
  while (!entered.load()) std::this_thread::yield();
  for (int i = 0; i < 200000; ++i) victim = i;
  t.join();
  return planted("rw");
}

/// The classic broken publication: a payload handed to a waiting thread
/// through a *relaxed* atomic flag, which establishes no happens-before.
int fixture_publish() {
  static volatile int payload = 0;
  std::atomic<bool> ready{false};
  int seen = 0;
  std::thread t([&] {
    while (!ready.load(std::memory_order_relaxed)) std::this_thread::yield();
    seen = payload;  // REAL race: the relaxed flag publishes nothing
  });
  payload = 42;
  ready.store(true, std::memory_order_relaxed);
  t.join();
  g_sink = seen;
  return planted("publish");
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
  std::fputs(scidock::lockdep::format_report().c_str(), stdout);
  if (!scidock::lockdep::compiled_in()) {
    std::fputs("sync_planted: lockdep compiled out -- rebuild with "
               "-DSCIDOCK_SYNC_ANALYSIS=ON\n",
               stdout);
    return 2;
  }
  if (scidock::lockdep::finding_count(HazardKind::kLockInversion) == 0) {
    // Deliberately does not echo the rule ID: the CI grep must only
    // match when lockdep itself reported it.
    std::fputs("sync_planted: expected report missing\n", stdout);
    return 1;
  }
  std::printf("sync_planted: flagged %s\n",
              scidock::lockdep::rule_id(HazardKind::kLockInversion).data());
  return 0;
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
