#pragma once

/// \file thread_pool.hpp
/// Work-queue thread pool used by the native workflow executor.
///
/// Design: a single mutex-protected FIFO. The pool is small (it models
/// "virtual cores" of one VM, typically 2-16), so a sharded/stealing deque
/// would be complexity without measurable benefit; tasks in scidock are
/// coarse (whole activity executions or batches of grid slabs).

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace scidock {

class ThreadPool {
 public:
  /// Runs at the start of every task submitted after installation, inside
  /// the task's own future/exception boundary: a throwing hook surfaces
  /// through the task's future exactly like a throwing task body. Used by
  /// the chaos harness to inject scheduling delays and task exceptions.
  using TaskHook = std::function<void()>;

  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);

  /// Drains nothing: outstanding tasks are completed before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Install (or clear, with an empty function) the per-task hook.
  /// Applies to tasks submitted after the call.
  void set_task_hook(TaskHook hook);

  /// Observability callbacks, invoked outside the pool lock. `enqueued`
  /// fires after a task is queued with the resulting queue depth;
  /// `finished` fires when a task completes (or throws) with its
  /// queue-wait and execution wall times. Both must be thread-safe; the
  /// obs layer installs them via obs::instrument_thread_pool. Applies to
  /// tasks submitted after the call.
  struct StatsHook {
    std::function<void(std::size_t queue_depth)> enqueued;
    std::function<void(double wait_s, double exec_s)> finished;
  };
  void set_stats_hook(StatsHook hook);

  /// Enqueue a task; the future reports its result or exception.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    TaskHook hook;
    StatsHook stats;
    {
      MutexLock lock(mutex_);
      hook = task_hook_;
      stats = stats_hook_;
    }
    const auto enqueued_at = std::chrono::steady_clock::now();
    auto task = std::make_shared<std::packaged_task<R()>>(
        [hook = std::move(hook), finished = std::move(stats.finished),
         enqueued_at, fn = std::forward<F>(fn)]() mutable -> R {
          TaskTimer timer{std::move(finished), enqueued_at,
                          std::chrono::steady_clock::now()};
          if (hook) hook();
          return fn();
        });
    std::future<R> fut = task->get_future();
    std::size_t depth = 0;
    {
      MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
      depth = queue_.size();
    }
    cv_.notify_one();
    if (stats.enqueued) stats.enqueued(depth);
    return fut;
  }

  /// Run `fn(i)` for i in [0, n) across the pool and wait for completion.
  /// `grain` > 1 batches that many consecutive indices into one task, so
  /// fine-grained loops don't pay one dispatch + hook invocation per index; task and stats hooks then fire
  /// once per chunk. A chunk stops at the first throwing iteration, and
  /// exceptions from any chunk are rethrown (first submitted wins).
  ///
  /// Calling this from a worker of the *same* pool queues the chunks
  /// behind the calling task and then blocks on them — a deadlock once
  /// every worker does it. Lockdep reports exactly that as LD002
  /// (pool self-wait) with the caller's site.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1,
                    lockdep::Site site = lockdep::Site::current());

 private:
  /// Fires `finished` (if set) when the task body leaves scope — normal
  /// return and exception alike — with (queue wait, execution) seconds.
  struct TaskTimer {
    std::function<void(double, double)> finished;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point started;
    ~TaskTimer() {
      if (!finished) return;
      const auto now = std::chrono::steady_clock::now();
      finished(std::chrono::duration<double>(started - enqueued).count(),
               std::chrono::duration<double>(now - started).count());
    }
  };

  void worker_loop();

  std::vector<std::thread> workers_;  ///< written only in the constructor
  Mutex mutex_{"pool.queue"};
  CondVar cv_;
  std::deque<std::function<void()>> queue_ SCIDOCK_GUARDED_BY(mutex_);
  TaskHook task_hook_ SCIDOCK_GUARDED_BY(mutex_);
  StatsHook stats_hook_ SCIDOCK_GUARDED_BY(mutex_);
  bool stop_ SCIDOCK_GUARDED_BY(mutex_) = false;
};

}  // namespace scidock
