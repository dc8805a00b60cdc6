#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace scidock {

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(threads, 1);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::set_task_hook(TaskHook hook) {
  MutexLock lock(mutex_);
  task_hook_ = std::move(hook);
}

void ThreadPool::set_stats_hook(StatsHook hook) {
  MutexLock lock(mutex_);
  stats_hook_ = std::move(hook);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  // Tasks run below can tell they execute inside this pool, so blocking
  // on work queued into it (nested parallel_for, single-flight waits) is
  // reportable as a self-wait hazard.
  lockdep::PoolWorkerScope worker_scope(this);
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain, lockdep::Site site) {
  if (n > 0) lockdep::on_pool_wait(this, site);
  grain = std::max<std::size_t>(grain, 1);
  std::vector<std::future<void>> futures;
  futures.reserve((n + grain - 1) / grain);
  for (std::size_t begin = 0; begin < n; begin += grain) {
    const std::size_t end = std::min(begin + grain, n);
    futures.push_back(submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace scidock
