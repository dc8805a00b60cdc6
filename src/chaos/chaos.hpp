#pragma once

/// \file chaos.hpp
/// Seed-deterministic fault injection ("chaos") for the workflow stack.
///
/// The paper's central robustness claim is that SciCumulus survives ~10 %
/// activation failures and looping-state hangs via provenance-driven
/// re-execution (PAPER.md SS IV.B). The simulated executor already has a
/// FailureModel; this layer extends fault injection to everything the
/// *native* path touches — the shared filesystem, the thread pool and the
/// activation loop — so both executors can be stressed identically and
/// their invariants compared (see invariants.hpp).
///
/// Every decision is a pure hash of (seed, site, key): two runs with the
/// same seed inject exactly the same faults regardless of thread
/// interleaving, so a failing CI seed replays byte-for-byte locally.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cloud/failure.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vfs/vfs.hpp"
#include "wf/native_executor.hpp"

namespace scidock::chaos {

/// Transient shared-filesystem faults. A path drawn as faulty fails its
/// first k accesses (k <= max_transient_failures) and then recovers —
/// the s3fs "eventual consistency hiccup" — so a retrying executor with
/// budget > k always gets through.
struct VfsFaultProfile {
  double read_fault_probability = 0.0;
  double write_fault_probability = 0.0;
  int max_transient_failures = 2;   ///< per-path failures before recovery
  double latency_spike_probability = 0.0;
  double latency_spike_ms = 1.0;    ///< real sleep (shakes thread timing)
  /// Only paths containing this substring are eligible ("" = all). Lets
  /// tests target activity I/O while sparing the executor's own staging
  /// of input_1.txt/output_1.txt, which has no retry loop around it.
  std::string path_substring;
};

/// Thread-pool scheduling chaos: random pre-task delays and task-level
/// exception injection (surfaces through the task's future).
struct PoolFaultProfile {
  double delay_probability = 0.0;
  double delay_ms = 1.0;
  double exception_probability = 0.0;
};

/// Per-activation-attempt faults for the native executor, mirroring
/// cloud::FailureModelOptions so the same profile drives both executors.
struct ActivityFaultProfile {
  double failure_probability = 0.0;
  double hang_probability = 0.0;
};

struct ChaosProfile {
  std::string name = "off";
  VfsFaultProfile vfs;
  PoolFaultProfile pool;
  ActivityFaultProfile activity;
};

/// Canned profiles used by the chaos sweep (tests/chaos_test.cpp).
ChaosProfile chaos_profile_off();
ChaosProfile chaos_profile_light();   ///< the paper's ~10 % failure regime
ChaosProfile chaos_profile_heavy();   ///< well past the paper's rates

/// Exception type injected by the pool hook, so tests can tell injected
/// chaos apart from genuine task failures.
class ChaosInjectedError : public Error {
 public:
  explicit ChaosInjectedError(const std::string& what) : Error(what) {}
};

/// Fault-decision engine. Hands out hooks for the individual subsystems;
/// the hooks share state through a shared_ptr and stay valid after the
/// engine itself is destroyed. All hooks are thread-safe.
class ChaosEngine {
 public:
  ChaosEngine(ChaosProfile profile, std::uint64_t seed);

  const ChaosProfile& profile() const { return profile_; }
  std::uint64_t seed() const { return seed_; }

  /// Hook for vfs::SharedFileSystem::set_fault_hook. Throws ActivityError
  /// on an injected fault so a retrying activation recovers normally.
  vfs::SharedFileSystem::FaultHook vfs_hook() const;

  /// Hook for ThreadPool::set_task_hook (delays sleep; exceptions throw
  /// ChaosInjectedError through the task's future).
  ThreadPool::TaskHook pool_hook() const;

  /// Fault injector for NativeExecutorOptions::fault_injector. Pure in
  /// (tag, tuple, attempt): deterministic across thread interleavings.
  wf::FaultInjectorFn activity_fault_injector() const;

  /// Mirror of the activity profile for the simulated executor, so a sim
  /// run and a native run stress the same failure/hang rates.
  cloud::FailureModelOptions failure_options(int max_attempts,
                                             double hang_timeout_s) const;

  // ---- did chaos actually fire? (assertable by tests) ----
  long long vfs_faults_injected() const;
  long long pool_exceptions_injected() const;

 private:
  struct State;
  ChaosProfile profile_;
  std::uint64_t seed_ = 0;
  std::shared_ptr<State> state_;
};

/// Which step of the provenance WAL commit protocol (DESIGN.md §12) a
/// KillSwitch crashes.
enum class KillPhase {
  Append,       ///< tear the ordinal-th WAL append after keep_bytes bytes
  GroupCommit,  ///< hard-fail the ordinal-th WAL append (whole batch lost)
  Rotate,       ///< hard-fail the ordinal-th segment-seal rename
};

struct KillPoint {
  KillPhase phase = KillPhase::Append;
  int ordinal = 0;             ///< which matching WAL operation fires (0-based)
  std::size_t keep_bytes = 0;  ///< Append phase: bytes that land before the tear
};

/// One-shot crash injector for the provenance WAL: install its hooks on
/// the store's VFS and the `ordinal`-th matching operation fails exactly
/// the way a process death at that point would look on disk. Only WAL
/// files (paths containing ".wal") are eligible, so workflow I/O through
/// the same VFS is untouched. Copyable; hooks share state and outlive the
/// switch (same lifetime contract as ChaosEngine's hooks).
class KillSwitch {
 public:
  explicit KillSwitch(KillPoint point);

  /// Install with vfs::SharedFileSystem::set_torn_write_hook. Fires only
  /// in the Append phase.
  vfs::SharedFileSystem::TornWriteHook torn_write_hook() const;
  /// Install with vfs::SharedFileSystem::set_fault_hook. Fires in the
  /// GroupCommit (append) and Rotate (rename) phases, throwing
  /// ChaosInjectedError before anything is applied.
  vfs::SharedFileSystem::FaultHook fault_hook() const;

  bool fired() const;

 private:
  struct State;
  KillPoint point_;
  std::shared_ptr<State> state_;
};

}  // namespace scidock::chaos
