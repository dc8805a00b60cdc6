#include "chaos/chaos.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace scidock::chaos {

namespace {

/// One splitmix64 round over the running hash; chains arbitrarily many
/// ingredients into a decorrelated 64-bit decision value.
std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  std::uint64_t s = h ^ (x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return splitmix64(s);
}

/// Uniform [0, 1) from a hash (same bit recipe as Rng::uniform).
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Stable identity of a tuple: its ordered field list, which is identical
/// across replays (relations preserve field order).
std::uint64_t tuple_hash(const wf::Tuple& tuple) {
  std::uint64_t h = 0x791e5ULL;
  for (const auto& [k, v] : tuple.fields()) {
    h = mix(h, fnv1a64(k));
    h = mix(h, fnv1a64(v));
  }
  return h;
}

}  // namespace

ChaosProfile chaos_profile_off() { return ChaosProfile{}; }

ChaosProfile chaos_profile_light() {
  ChaosProfile p;
  p.name = "light";
  p.vfs.read_fault_probability = 0.05;
  p.vfs.write_fault_probability = 0.05;
  p.vfs.max_transient_failures = 2;
  p.vfs.latency_spike_probability = 0.02;
  p.vfs.latency_spike_ms = 0.2;
  p.pool.delay_probability = 0.10;
  p.pool.delay_ms = 0.2;
  p.activity.failure_probability = 0.10;  // the paper's ~10 % rate
  p.activity.hang_probability = 0.005;
  return p;
}

ChaosProfile chaos_profile_heavy() {
  ChaosProfile p;
  p.name = "heavy";
  p.vfs.read_fault_probability = 0.20;
  p.vfs.write_fault_probability = 0.20;
  p.vfs.max_transient_failures = 2;
  p.vfs.latency_spike_probability = 0.05;
  p.vfs.latency_spike_ms = 0.2;
  p.pool.delay_probability = 0.25;
  p.pool.delay_ms = 0.3;
  p.activity.failure_probability = 0.25;
  p.activity.hang_probability = 0.02;
  return p;
}

struct ChaosEngine::State {
  Mutex mutex{"chaos.state"};
  /// Accesses so far per (op, path); a faulty path fails while this is
  /// below its drawn transient budget, then recovers.
  std::map<std::string, int> transient_used SCIDOCK_GUARDED_BY(mutex);
  std::atomic<long long> vfs_faults{0};
  std::atomic<long long> pool_exceptions{0};
  std::atomic<std::uint64_t> pool_ticket{0};
  std::atomic<std::uint64_t> latency_ticket{0};
};

ChaosEngine::ChaosEngine(ChaosProfile profile, std::uint64_t seed)
    : profile_(std::move(profile)), seed_(seed),
      state_(std::make_shared<State>()) {}

vfs::SharedFileSystem::FaultHook ChaosEngine::vfs_hook() const {
  const VfsFaultProfile vfs = profile_.vfs;
  const std::uint64_t seed = seed_;
  std::shared_ptr<State> state = state_;
  if (vfs.read_fault_probability <= 0.0 && vfs.write_fault_probability <= 0.0 &&
      vfs.latency_spike_probability <= 0.0) {
    return nullptr;
  }
  return [vfs, seed, state](vfs::FileOp op, const std::string& path) {
    if (!vfs.path_substring.empty() &&
        path.find(vfs.path_substring) == std::string::npos) {
      return;
    }
    // Latency spike: wall-clock only, never observable in results.
    if (vfs.latency_spike_probability > 0.0) {
      const std::uint64_t n = state->latency_ticket.fetch_add(1);
      if (unit(mix(mix(seed, fnv1a64("vfs-latency")), n)) <
          vfs.latency_spike_probability) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            vfs.latency_spike_ms));
      }
    }
    const bool is_read = op == vfs::FileOp::Read;
    const double p =
        is_read ? vfs.read_fault_probability : vfs.write_fault_probability;
    if (p <= 0.0) return;
    // The transient budget is a pure function of (seed, op, path): either
    // 0 (healthy path) or 1..max_transient_failures.
    const std::uint64_t h =
        mix(mix(seed, fnv1a64(is_read ? "vfs-read" : "vfs-write")),
            fnv1a64(path));
    int budget = 0;
    if (unit(h) < p) {
      budget = 1 + static_cast<int>(
                       (h >> 20) %
                       static_cast<std::uint64_t>(
                           std::max(1, vfs.max_transient_failures)));
    }
    if (budget == 0) return;
    {
      MutexLock lock(state->mutex);
      int& used = state->transient_used[(is_read ? "R:" : "W:") + path];
      if (used >= budget) return;  // path has recovered
      ++used;
    }
    state->vfs_faults.fetch_add(1);
    throw ActivityError("chaos: injected transient " +
                        std::string(is_read ? "read" : "write") +
                        " fault on " + path);
  };
}

ThreadPool::TaskHook ChaosEngine::pool_hook() const {
  const PoolFaultProfile pool = profile_.pool;
  const std::uint64_t seed = seed_;
  std::shared_ptr<State> state = state_;
  if (pool.delay_probability <= 0.0 && pool.exception_probability <= 0.0) {
    return nullptr;
  }
  return [pool, seed, state] {
    const std::uint64_t n = state->pool_ticket.fetch_add(1);
    if (pool.exception_probability > 0.0 &&
        unit(mix(mix(seed, fnv1a64("pool-exception")), n)) <
            pool.exception_probability) {
      state->pool_exceptions.fetch_add(1);
      throw ChaosInjectedError("chaos: injected task exception (ticket " +
                               std::to_string(n) + ")");
    }
    if (pool.delay_probability > 0.0 &&
        unit(mix(mix(seed, fnv1a64("pool-delay")), n)) <
            pool.delay_probability) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(pool.delay_ms));
    }
  };
}

wf::FaultInjectorFn ChaosEngine::activity_fault_injector() const {
  const ActivityFaultProfile activity = profile_.activity;
  const std::uint64_t seed = seed_;
  if (activity.failure_probability <= 0.0 &&
      activity.hang_probability <= 0.0) {
    return nullptr;
  }
  return [activity, seed](const std::string& tag, const wf::Tuple& tuple,
                          int attempt) -> wf::InjectedFault {
    // Pure in (tag, tuple, attempt): each retry redraws, so transient
    // failures clear under the attempt budget like the paper's ~10 %.
    const std::uint64_t h = mix(
        mix(mix(mix(seed, fnv1a64("activity")), fnv1a64(tag)),
            tuple_hash(tuple)),
        static_cast<std::uint64_t>(attempt));
    const double u = unit(h);
    if (u < activity.hang_probability) return wf::InjectedFault::Hang;
    if (u < activity.hang_probability + activity.failure_probability) {
      return wf::InjectedFault::Failure;
    }
    return wf::InjectedFault::None;
  };
}

cloud::FailureModelOptions ChaosEngine::failure_options(
    int max_attempts, double hang_timeout_s) const {
  cloud::FailureModelOptions opts;
  opts.failure_probability = profile_.activity.failure_probability;
  opts.hang_probability = profile_.activity.hang_probability;
  opts.max_attempts = max_attempts;
  opts.hang_timeout_s = hang_timeout_s;
  return opts;
}

long long ChaosEngine::vfs_faults_injected() const {
  return state_->vfs_faults.load();
}
long long ChaosEngine::pool_exceptions_injected() const {
  return state_->pool_exceptions.load();
}

struct KillSwitch::State {
  std::atomic<int> seen{0};
  std::atomic<bool> fired{false};
};

KillSwitch::KillSwitch(KillPoint point)
    : point_(point), state_(std::make_shared<State>()) {}

bool KillSwitch::fired() const { return state_->fired.load(); }

vfs::SharedFileSystem::TornWriteHook KillSwitch::torn_write_hook() const {
  if (point_.phase != KillPhase::Append) return nullptr;
  const KillPoint point = point_;
  std::shared_ptr<State> state = state_;
  return [point, state](vfs::FileOp op, const std::string& path,
                        std::size_t bytes) -> std::optional<std::size_t> {
    if (op != vfs::FileOp::Append || bytes == 0 ||
        path.find(".wal") == std::string::npos) {
      return std::nullopt;
    }
    if (state->fired.load(std::memory_order_relaxed)) return std::nullopt;
    if (state->seen.fetch_add(1) != point.ordinal) return std::nullopt;
    state->fired.store(true);
    // Clamp below the batch size so the tear is real (never a full write).
    return std::min(point.keep_bytes, bytes - 1);
  };
}

vfs::SharedFileSystem::FaultHook KillSwitch::fault_hook() const {
  if (point_.phase != KillPhase::GroupCommit &&
      point_.phase != KillPhase::Rotate) {
    return nullptr;
  }
  const KillPoint point = point_;
  std::shared_ptr<State> state = state_;
  const vfs::FileOp target = point_.phase == KillPhase::GroupCommit
                                 ? vfs::FileOp::Append
                                 : vfs::FileOp::Rename;
  return [point, state, target](vfs::FileOp op, const std::string& path) {
    if (op != target || path.find(".wal") == std::string::npos) return;
    if (state->fired.load(std::memory_order_relaxed)) return;
    if (state->seen.fetch_add(1) != point.ordinal) return;
    state->fired.store(true);
    throw ChaosInjectedError(
        "chaos: kill point fired on " + path + " (" +
        (target == vfs::FileOp::Append ? "group-commit append"
                                       : "segment-seal rename") +
        " #" + std::to_string(point.ordinal) + ")");
  };
}

}  // namespace scidock::chaos
