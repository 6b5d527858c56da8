#pragma once

/// \file thread_pool.h
/// \brief Fixed-size thread pool for running independent simulation trials.
///
/// Experiments fan out (trial, data-point) pairs across a pool; each trial
/// owns its RNG and simulator, so there is no shared mutable state beyond
/// the result slots the caller provides. On a single-core host the pool
/// degrades gracefully to near-serial execution.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace vodsim {

class ThreadPool {
 public:
  /// Spawns \p num_threads workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; returns a future for its completion/exception.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [0, count) across the pool and blocks until all
  /// complete. Rethrows the first task exception encountered.
  ///
  /// Safe to call from inside a pool task (e.g. a sweep trial that itself
  /// fans work out through a pool): a nested call detects that it is executing on a pool worker and runs
  /// caller-only — no helper tasks are submitted, the calling strand
  /// drains every index itself. Submitting helpers from a worker can
  /// deadlock a fixed-size pool: when every worker blocks joining helper
  /// tasks that sit behind the very tasks occupying the workers, nobody
  /// ever frees up to run them. Semantics (index coverage, exception
  /// policy) are identical either way; only the parallelism degrades.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this process's pool workers
  /// (any pool — the flag is per-thread, not per-pool). Exposed so callers
  /// that would *rather* restructure than serialize can fail loudly.
  static bool on_pool_worker();

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace vodsim
