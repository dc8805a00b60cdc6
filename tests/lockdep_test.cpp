// Lock-discipline suite (DESIGN.md §11). The negative controls provoke
// the real hazards on purpose — an A->B / B->A lock-order inversion and
// a ThreadPool worker blocking on its own pool — and assert on the exact
// cycle, rule IDs and call sites the analyzer reports. The remaining
// tests cover the CondVar / blocking-wait hazards, the long-hold
// warning, the runtime kill-switch, and lockdep's three bridges:
// obs::publish_sync_metrics, InvariantChecker::check_sync and
// lint::sync_report. Provocation tests
// skip unless built with -DSCIDOCK_SYNC_ANALYSIS=ON; the
// disabled-behavior tests run (only) when it is compiled out, so both
// configurations exercise this binary.
//
// Cases that plant a real inversion use the LockdepInversionTest
// fixture: ThreadSanitizer's deadlock detector (correctly) flags them
// too, so the TSan leg of ci/check.sh runs them only as a cross-check
// (ctest label sync-inversion) that requires both detectors to see the
// cycle.

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/invariants.hpp"
#include "lint/diagnostics.hpp"
#include "lint/sync_lint.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/lockdep.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace scidock {
namespace {

// ---------------------------------------------------------------------------
// Both configurations: stable rule IDs and hazard names.

TEST(LockdepRules, StableRuleIds) {
  EXPECT_EQ(lockdep::rule_id(lockdep::HazardKind::kLockInversion), "LD001");
  EXPECT_EQ(lockdep::rule_id(lockdep::HazardKind::kPoolSelfWait), "LD002");
  EXPECT_EQ(lockdep::rule_id(lockdep::HazardKind::kWaitWhileHolding), "LD003");
  EXPECT_EQ(lockdep::rule_id(lockdep::HazardKind::kLongHold), "LD004");
  EXPECT_EQ(lockdep::rule_id(lockdep::HazardKind::kDuplicateClass), "LD005");
  EXPECT_EQ(lockdep::to_string(lockdep::HazardKind::kLockInversion),
            "lock-order inversion");
  EXPECT_EQ(lockdep::to_string(lockdep::HazardKind::kDuplicateClass),
            "duplicate lock-class name");
}

// ---------------------------------------------------------------------------
// Compiled-out configuration: every entry point must be inert and every
// bridge trivially clean, so OFF builds pay nothing and fail nothing.

TEST(LockdepDisabled, AllBridgesAreInertWhenCompiledOut) {
  if (lockdep::compiled_in()) {
    GTEST_SKIP() << "built with SCIDOCK_SYNC_ANALYSIS=ON";
  }
  EXPECT_NE(lockdep::format_report().find("disabled"), std::string::npos);
  EXPECT_TRUE(lockdep::clean());
  EXPECT_TRUE(lockdep::findings().empty());
  EXPECT_EQ(lockdep::counters().acquisitions, 0);
  EXPECT_FALSE(lockdep::enabled());
  // Compiled out, a Mutex carries no analyzer state.
  EXPECT_EQ(sizeof(Mutex), sizeof(std::mutex));

  chaos::InvariantChecker checker;
  EXPECT_TRUE(checker.check_sync());
  EXPECT_TRUE(checker.ok());

  EXPECT_TRUE(lint::sync_report().clean());

  obs::MetricsRegistry registry;
  obs::publish_sync_metrics(registry);
  EXPECT_EQ(registry.counter_value(obs::kLockdepAcquisitions), 0);
  EXPECT_EQ(registry.series_count(), 0u);
}

// ---------------------------------------------------------------------------
// Compiled-in configuration. Each test resets lockdep and uses lock
// classes named after itself: classes are global and live for the
// process, so sharing names across tests would entangle their graphs.

class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lockdep::compiled_in()) {
      GTEST_SKIP() << "requires -DSCIDOCK_SYNC_ANALYSIS=ON";
    }
#if SCIDOCK_LOCKDEP_ENABLED
    lockdep::reset();
    lockdep::set_enabled(true);
    lockdep::set_long_hold_threshold(1.0);
#endif
  }

  void TearDown() override {
#if SCIDOCK_LOCKDEP_ENABLED
    if (!lockdep::compiled_in()) return;
    lockdep::set_long_hold_threshold(1.0);
    lockdep::set_enabled(true);
    lockdep::reset();
#endif
  }
};

/// Cases that plant a real A->B / B->A inversion (see the file comment).
class LockdepInversionTest : public LockdepTest {};

#if SCIDOCK_LOCKDEP_ENABLED

std::optional<lockdep::Finding> first_finding(lockdep::HazardKind kind) {
  for (const lockdep::Finding& f : lockdep::findings()) {
    if (f.kind == kind) return f;
  }
  return std::nullopt;
}

bool site_matches(const std::string& site, int line) {
  return site.find("lockdep_test.cpp:" + std::to_string(line)) !=
         std::string::npos;
}

#endif  // SCIDOCK_LOCKDEP_ENABLED

TEST_F(LockdepTest, ConsistentOrderIsClean) {
#if SCIDOCK_LOCKDEP_ENABLED
  Mutex a{"test.clean.a"};
  Mutex b{"test.clean.b"};
  for (int i = 0; i < 3; ++i) {
    MutexLock la(a);
    MutexLock lb(b);
  }
  EXPECT_TRUE(lockdep::clean());
  EXPECT_TRUE(lockdep::findings().empty());
  const lockdep::CounterSnapshot s = lockdep::counters();
  EXPECT_GE(s.acquisitions, 6);
  EXPECT_GE(s.order_edges, 1);  // a -> b, recorded once
  EXPECT_NE(lockdep::format_report().find("clean"), std::string::npos);
#endif
}

// Negative control 1 (ISSUE acceptance): a genuine A->B / B->A inversion
// must be reported as LD001 with the complete two-edge cycle and the
// file:line of all four acquisitions.
TEST_F(LockdepInversionTest, InversionReportsFullCycleWithCallSites) {
#if SCIDOCK_LOCKDEP_ENABLED
  Mutex a{"test.inv.a"};
  Mutex b{"test.inv.b"};

  int line_hold_a = 0, line_b_under_a = 0;
  {
    line_hold_a = __LINE__ + 1;
    MutexLock la(a);
    line_b_under_a = __LINE__ + 1;
    MutexLock lb(b);  // records edge a -> b
  }
  ASSERT_TRUE(lockdep::clean()) << lockdep::format_report();

  int line_hold_b = 0, line_a_under_b = 0;
  {
    line_hold_b = __LINE__ + 1;
    MutexLock lb(b);
    line_a_under_b = __LINE__ + 1;
    MutexLock la(a);  // closes the cycle: LD001 fires here
  }

  EXPECT_FALSE(lockdep::clean());
  EXPECT_EQ(lockdep::finding_count(lockdep::HazardKind::kLockInversion), 1u);
  const auto f = first_finding(lockdep::HazardKind::kLockInversion);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->is_error);
  EXPECT_NE(f->message.find("test.inv.a"), std::string::npos) << f->message;
  EXPECT_NE(f->message.find("test.inv.b"), std::string::npos) << f->message;
  EXPECT_EQ(f->line, line_a_under_b);

  // Closing edge first: this thread acquired a while holding b ...
  ASSERT_EQ(f->cycle.size(), 2u);
  EXPECT_EQ(f->cycle[0].held, "test.inv.b");
  EXPECT_EQ(f->cycle[0].acquired, "test.inv.a");
  EXPECT_TRUE(site_matches(f->cycle[0].held_site, line_hold_b))
      << f->cycle[0].held_site;
  EXPECT_TRUE(site_matches(f->cycle[0].acquire_site, line_a_under_b))
      << f->cycle[0].acquire_site;
  // ... then the recorded back edge: a was held when b was acquired.
  EXPECT_EQ(f->cycle[1].held, "test.inv.a");
  EXPECT_EQ(f->cycle[1].acquired, "test.inv.b");
  EXPECT_TRUE(site_matches(f->cycle[1].held_site, line_hold_a))
      << f->cycle[1].held_site;
  EXPECT_TRUE(site_matches(f->cycle[1].acquire_site, line_b_under_a))
      << f->cycle[1].acquire_site;

  // The rendered evidence carries every site, ready for a bug report.
  EXPECT_NE(f->details.find("potential deadlock cycle (2 edges)"),
            std::string::npos)
      << f->details;
  for (const int line : {line_hold_a, line_b_under_a, line_hold_b,
                         line_a_under_b}) {
    EXPECT_TRUE(f->details.find("lockdep_test.cpp:" + std::to_string(line)) !=
                std::string::npos)
        << "missing site :" << line << " in\n"
        << f->details;
  }
  EXPECT_NE(lockdep::format_report().find("[LD001]"), std::string::npos);
#endif
}

// The inversion is a property of lock *classes*, so two distinct threads
// (never holding both locks at once, never colliding) still trip it.
TEST_F(LockdepInversionTest, InversionAcrossThreadsIsDetected) {
#if SCIDOCK_LOCKDEP_ENABLED
  Mutex a{"test.xthread.a"};
  Mutex b{"test.xthread.b"};
  // Both threads stay alive until the end (sequenced by `first_done`, not
  // by join) so the OS cannot recycle one thread id for the other.
  std::atomic<bool> first_done{false};
  std::atomic<bool> all_done{false};
  std::thread first([&] {
    {
      MutexLock la(a);
      MutexLock lb(b);
    }
    first_done.store(true);
    while (!all_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread second([&] {
    while (!first_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    MutexLock lb(b);
    MutexLock la(a);
  });
  second.join();
  all_done.store(true);
  first.join();
  EXPECT_EQ(lockdep::finding_count(lockdep::HazardKind::kLockInversion), 1u);
  const auto f = first_finding(lockdep::HazardKind::kLockInversion);
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->cycle.size(), 2u);
  // Each direction was witnessed by its own thread.
  EXPECT_NE(f->cycle[0].thread_id, f->cycle[1].thread_id);
#endif
}

// Anonymous (unnamed) mutexes are excluded from the order graph: one
// shared class over unrelated instances would invent impossible cycles.
TEST_F(LockdepInversionTest, AnonymousMutexesRecordNoOrderEdges) {
#if SCIDOCK_LOCKDEP_ENABLED
  Mutex a;
  Mutex b;
  const long long edges_before = lockdep::counters().order_edges;
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_EQ(lockdep::counters().order_edges, edges_before);
  EXPECT_TRUE(lockdep::clean());
#endif
}

// Negative control 2 (ISSUE acceptance): a worker calling parallel_for
// on its own pool — the nested-parallelism bug TSA cannot see — is LD002
// with the caller's site. Two workers keep the provocation itself from
// deadlocking: the second worker drains the nested chunks.
TEST_F(LockdepTest, PoolSelfWaitIsDetectedWithCallerSite) {
#if SCIDOCK_LOCKDEP_ENABLED
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  int line_nested = 0;
  pool.submit([&] {
        line_nested = __LINE__ + 1;
        pool.parallel_for(4, [&](std::size_t) { ran.fetch_add(1); });
      })
      .get();
  EXPECT_EQ(ran.load(), 4);

  EXPECT_FALSE(lockdep::clean());
  EXPECT_EQ(lockdep::finding_count(lockdep::HazardKind::kPoolSelfWait), 1u);
  const auto f = first_finding(lockdep::HazardKind::kPoolSelfWait);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->is_error);
  EXPECT_EQ(f->line, line_nested);
  EXPECT_NE(f->message.find("its own pool"), std::string::npos) << f->message;
  EXPECT_TRUE(site_matches(f->message, line_nested)) << f->message;
  EXPECT_NE(lockdep::format_report().find("[LD002]"), std::string::npos);
#endif
}

// parallel_for from a worker of a *different* pool is the supported
// nesting pattern (outer pool over receptors, inner over grid slabs).
TEST_F(LockdepTest, CrossPoolParallelForIsClean) {
#if SCIDOCK_LOCKDEP_ENABLED
  ThreadPool outer(1);
  ThreadPool inner(2);
  std::atomic<int> ran{0};
  outer.submit([&] {
         inner.parallel_for(4, [&](std::size_t) { ran.fetch_add(1); });
       })
      .get();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(lockdep::finding_count(lockdep::HazardKind::kPoolSelfWait), 0u);
  EXPECT_TRUE(lockdep::clean()) << lockdep::format_report();
  EXPECT_GE(lockdep::counters().pool_wait_checks, 1);
#endif
}

// parallel_for from a plain (non-worker) thread never triggers LD002.
TEST_F(LockdepTest, ParallelForFromOutsideIsClean) {
#if SCIDOCK_LOCKDEP_ENABLED
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(lockdep::finding_count(lockdep::HazardKind::kPoolSelfWait), 0u);
#endif
}

TEST_F(LockdepTest, CondVarWaitWhileHoldingUnrelatedLockIsLD003) {
#if SCIDOCK_LOCKDEP_ENABLED
  Mutex outer{"test.ld003.outer"};
  Mutex inner{"test.ld003.inner"};
  CondVar cv;
  std::atomic<bool> woke{false};
  std::thread notifier([&] {
    while (!woke.load()) {
      cv.notify_all();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  {
    MutexLock hold_outer(outer);
    MutexLock hold_inner(inner);
    cv.wait(inner);  // parks with test.ld003.outer still held
    woke.store(true);
  }
  notifier.join();

  EXPECT_FALSE(lockdep::clean());
  const auto f = first_finding(lockdep::HazardKind::kWaitWhileHolding);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->is_error);
  EXPECT_NE(f->message.find("test.ld003.outer"), std::string::npos)
      << f->message;
  EXPECT_EQ(f->message.find("test.ld003.inner"), std::string::npos)
      << "the wait's own mutex is not 'unrelated': " << f->message;
  EXPECT_NE(lockdep::format_report().find("[LD003]"), std::string::npos);
#endif
}

TEST_F(LockdepTest, CondVarWaitHoldingOnlyItsOwnMutexIsClean) {
#if SCIDOCK_LOCKDEP_ENABLED
  Mutex inner{"test.ld003ok.inner"};
  CondVar cv;
  std::atomic<bool> woke{false};
  std::thread notifier([&] {
    while (!woke.load()) {
      cv.notify_all();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  {
    MutexLock hold_inner(inner);
    cv.wait(inner);
    woke.store(true);
  }
  notifier.join();
  EXPECT_EQ(lockdep::finding_count(lockdep::HazardKind::kWaitWhileHolding),
            0u);
  EXPECT_TRUE(lockdep::clean()) << lockdep::format_report();
  EXPECT_GE(lockdep::counters().cond_waits, 1);
#endif
}

// Annotated out-of-band wait (the single-flight grid-map future) while a
// lock is held: LD003, error.
TEST_F(LockdepTest, BlockingWaitWhileHoldingLockIsLD003) {
#if SCIDOCK_LOCKDEP_ENABLED
  Mutex m{"test.block.cache"};
  {
    MutexLock lock(m);
    lockdep::on_blocking_wait("test.single_flight", nullptr,
                              std::source_location::current());
  }
  EXPECT_FALSE(lockdep::clean());
  const auto f = first_finding(lockdep::HazardKind::kWaitWhileHolding);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->is_error);
  EXPECT_NE(f->message.find("test.single_flight"), std::string::npos);
  EXPECT_NE(f->message.find("test.block.cache"), std::string::npos);
#endif
}

// Same-pool single-flight wait: flagged as an LD002 *warning* — safe
// today because the owning task computes inline, but worth keeping
// visible. clean() stays true (warnings are tolerated). Waits on a flight
// claimed outside the waiter's pool stay silent.
TEST_F(LockdepTest, BlockingWaitOnOwnPoolIsAWarningNotAnError) {
#if SCIDOCK_LOCKDEP_ENABLED
  int pool_tag = 0;
  int other_pool = 0;
  std::promise<int> done;
  const std::shared_future<int> result = done.get_future().share();
  done.set_value(7);
  const auto claim_in = [](const void* pool) {
    lockdep::PoolWorkerScope scope(pool);
    return lockdep::on_flight_claim();
  };
  const auto wait_in_own_pool = [&](lockdep::FlightOwner owner,
                                    const char* what) {
    lockdep::PoolWorkerScope scope(&pool_tag);
    return lockdep::await_flight(result, owner, what, true);
  };
  EXPECT_EQ(wait_in_own_pool(claim_in(nullptr), "test.quiet"), 7);
  EXPECT_EQ(wait_in_own_pool(claim_in(&other_pool), "test.quiet"), 7);
  EXPECT_TRUE(lockdep::findings().empty()) << lockdep::format_report();
  EXPECT_EQ(wait_in_own_pool(claim_in(&pool_tag), "test.flight"), 7);
  const auto f = first_finding(lockdep::HazardKind::kPoolSelfWait);
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(f->is_error);
  EXPECT_NE(f->message.find("test.flight"), std::string::npos);
  EXPECT_TRUE(lockdep::clean());
  EXPECT_EQ(lockdep::counters().findings_warning, 1);
  EXPECT_GE(lockdep::counters().blocking_waits, 1);
#endif
}

// A blocking wait with nothing held and a foreign/no owner pool is the
// healthy case and must stay silent.
TEST_F(LockdepTest, BlockingWaitWithNothingHeldIsClean) {
#if SCIDOCK_LOCKDEP_ENABLED
  lockdep::on_blocking_wait("test.quiet", nullptr,
                            std::source_location::current());
  EXPECT_TRUE(lockdep::findings().empty());
#endif
}

TEST_F(LockdepTest, LongHoldEmitsWarning) {
#if SCIDOCK_LOCKDEP_ENABLED
  lockdep::set_long_hold_threshold(0.001);
  Mutex m{"test.ld004.slow"};
  {
    MutexLock lock(m);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto f = first_finding(lockdep::HazardKind::kLongHold);
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(f->is_error);
  EXPECT_NE(f->message.find("test.ld004.slow"), std::string::npos);
  EXPECT_TRUE(lockdep::clean());  // warning only
  EXPECT_NE(lockdep::format_report().find("[LD004]"), std::string::npos);
#endif
}

// Runtime kill-switch: with checks disabled (the bench baseline) the
// same inversion records nothing.
TEST_F(LockdepInversionTest, KillSwitchSuppressesAllBookkeeping) {
#if SCIDOCK_LOCKDEP_ENABLED
  lockdep::set_enabled(false);
  Mutex a{"test.kill.a"};
  Mutex b{"test.kill.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_TRUE(lockdep::findings().empty());
  EXPECT_EQ(lockdep::counters().acquisitions, 0);
  lockdep::set_enabled(true);
#endif
}

// ---- bridges ----

TEST_F(LockdepTest, PublishMetricsExportsAllSeries) {
#if SCIDOCK_LOCKDEP_ENABLED
  Mutex a{"test.metrics.a"};
  {
    MutexLock la(a);
  }
  obs::MetricsRegistry registry;
  obs::publish_sync_metrics(registry);
  EXPECT_GT(registry.gauge_value(obs::kLockdepLockClasses), 0.0);
  EXPECT_GT(registry.counter_value(obs::kLockdepAcquisitions), 0);
  EXPECT_EQ(registry.counter_value(obs::kLockdepFindingsError), 0);

  // Counters are delta-published: re-publishing into the same registry
  // must track the global value, never double it. (Exact counts are not
  // assertable — the registry's own shard locks are instrumented too —
  // but the registry can never run ahead of the global monotone value.)
  const long long after_first =
      registry.counter_value(obs::kLockdepAcquisitions);
  {
    MutexLock la(a);
  }
  obs::publish_sync_metrics(registry);
  const long long after_second =
      registry.counter_value(obs::kLockdepAcquisitions);
  EXPECT_GE(after_second, after_first + 1);
  EXPECT_LE(after_second, lockdep::counters().acquisitions);

  const std::string text = registry.to_prometheus_text();
  for (const std::string_view name :
       {obs::kLockdepLockClasses, obs::kLockdepAcquisitions,
        obs::kLockdepOrderEdges, obs::kLockdepCondWaits,
        obs::kLockdepPoolWaitChecks, obs::kLockdepBlockingWaits,
        obs::kLockdepFindingsError, obs::kLockdepFindingsWarning}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
#endif
}

TEST_F(LockdepInversionTest, InvariantCheckerFlagsErrorsAndToleratesWarnings) {
#if SCIDOCK_LOCKDEP_ENABLED
  {
    chaos::InvariantChecker checker;
    EXPECT_TRUE(checker.check_sync());
  }

  // A warning alone keeps the invariant green.
  int pool_tag = 0;
  {
    lockdep::PoolWorkerScope scope(&pool_tag);
    lockdep::on_blocking_wait("test.inv.flight", &pool_tag,
                              std::source_location::current());
  }
  {
    chaos::InvariantChecker checker;
    EXPECT_TRUE(checker.check_sync()) << checker.to_string();
  }

  // An inversion breaks it, and the violation names the rule.
  Mutex a{"test.invariant.a"};
  Mutex b{"test.invariant.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  chaos::InvariantChecker checker;
  EXPECT_FALSE(checker.check_sync());
  EXPECT_FALSE(checker.ok());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.to_string().find("LD001"), std::string::npos)
      << checker.to_string();
#endif
}

TEST_F(LockdepInversionTest, LintBridgeMapsFindingsToDiagnostics) {
#if SCIDOCK_LOCKDEP_ENABLED
  EXPECT_TRUE(lint::sync_report().clean());

  Mutex a{"test.lint.a"};
  Mutex b{"test.lint.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  lockdep::set_long_hold_threshold(0.001);
  Mutex slow{"test.lint.slow"};
  {
    MutexLock lock(slow);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  const lint::Report report = lint::sync_report();
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(report.has("LD001"));
  EXPECT_TRUE(report.has("LD004"));
  EXPECT_EQ(report.error_count(), 1u);  // LD004 maps to warning severity
  // Formatted diagnostics point at this file.
  EXPECT_NE(report.format().find("lockdep_test.cpp"), std::string::npos)
      << report.format();
#endif
}

TEST_F(LockdepInversionTest, ResetClearsFindingsAndGraph) {
#if SCIDOCK_LOCKDEP_ENABLED
  Mutex a{"test.reset.a"};
  Mutex b{"test.reset.b"};
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  ASSERT_FALSE(lockdep::clean());
  lockdep::reset();
  EXPECT_TRUE(lockdep::clean());
  EXPECT_TRUE(lockdep::findings().empty());
  EXPECT_EQ(lockdep::counters().acquisitions, 0);
  // The graph is gone too: the once-inverted order is a fresh start.
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  EXPECT_TRUE(lockdep::clean()) << lockdep::format_report();
#endif
}

// Regression: two Mutex declarations reusing one name used to merge
// silently into a single lock class, corrupting LD001 cycle attribution
// (an inversion between the two impostors looked like self-order noise).
// Now the second declaration gets its own class plus an LD005 error
// naming both sites.
TEST_F(LockdepInversionTest, DuplicateClassNameIsRejectedAcrossDeclarations) {
#if SCIDOCK_LOCKDEP_ENABLED
  const int first_line = __LINE__ + 1;
  Mutex a{"test.ld005.dup"};
  EXPECT_TRUE(lockdep::clean());
  const int second_line = __LINE__ + 1;
  Mutex b{"test.ld005.dup"};

  const auto finding = first_finding(lockdep::HazardKind::kDuplicateClass);
  ASSERT_TRUE(finding.has_value()) << lockdep::format_report();
  EXPECT_TRUE(finding->is_error);
  EXPECT_NE(finding->message.find("test.ld005.dup"), std::string::npos)
      << finding->message;
  // Both declaration sites appear, file:line each.
  EXPECT_NE(finding->message.find("lockdep_test.cpp:" +
                                  std::to_string(first_line)),
            std::string::npos)
      << finding->message;
  EXPECT_NE(finding->message.find("lockdep_test.cpp:" +
                                  std::to_string(second_line)),
            std::string::npos)
      << finding->message;
  EXPECT_EQ(finding->line, second_line);

  // The impostors are distinct classes now, so an inversion between
  // them is *detected* (the merged class used to swallow it as an
  // ignored self-edge) and the cycle names the disambiguated class.
  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock la(a);
  }
  const auto inversion = first_finding(lockdep::HazardKind::kLockInversion);
  ASSERT_TRUE(inversion.has_value()) << lockdep::format_report();
  EXPECT_NE(inversion->details.find("test.ld005.dup@"), std::string::npos)
      << inversion->details;

  // And the bridge speaks LD005.
  const lint::Report report = lint::sync_report();
  EXPECT_TRUE(report.has("LD005")) << report.format();
#endif
}

TEST_F(LockdepTest, SameDeclarationInstancesShareOneClass) {
#if SCIDOCK_LOCKDEP_ENABLED
  // Arrays / loops construct many Mutexes from one declaration; they
  // must share a class with no LD005.
  for (int i = 0; i < 3; ++i) {
    Mutex m{"test.ld005.loop"};
    MutexLock lock(m);
  }
  EXPECT_EQ(lockdep::finding_count(lockdep::HazardKind::kDuplicateClass), 0u)
      << lockdep::format_report();
#endif
}

}  // namespace
}  // namespace scidock
