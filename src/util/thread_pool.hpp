// Fixed-size thread pool used to fan parameter sweeps out across cores.
//
// Each (policy, sweep-point, repetition) simulation is independent and
// single-threaded, so the bench harness submits them as tasks here. The
// pool is deliberately simple: one shared queue, condition-variable wakeup,
// graceful join in the destructor (RAII, Core Guidelines CP.25-ish: prefer
// managed tasks over raw threads).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "util/ordered_mutex.hpp"

namespace fbc {

/// A fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware_concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Schedules `fn(args...)`; returns a future for its result.
  template <typename F, typename... Args>
  auto submit(F&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<F, Args...>> {
    using Result = std::invoke_result_t<F, Args...>;
    auto task = std::make_shared<std::packaged_task<Result()>>(
        [fn = std::forward<F>(fn),
         ... captured = std::forward<Args>(args)]() mutable {
          return std::invoke(std::move(fn), std::move(captured)...);
        });
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<OrderedMutex> lock(pool_mu_);
      if (stopping_)
        throw std::runtime_error("ThreadPool: submit after shutdown");
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs fn(i) for i in [0, n) across the pool and waits for every task,
  /// then rethrows the exception of the lowest-indexed task that threw.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  // fbc:lock-level(60)
  // fbc:guards(tasks_, stopping_)
  OrderedMutex pool_mu_{60, "ThreadPool::pool_mu_"};
  std::condition_variable_any cv_;
  bool stopping_ = false;
};

}  // namespace fbc
