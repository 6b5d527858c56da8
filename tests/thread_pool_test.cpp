// ThreadPool failure-path and lifecycle tests. The basics (tasks run,
// indices cover the range) live in util_test.cpp; this file pins the
// contracts experiments actually lean on: exception propagation out of
// parallel_for picks the first failing index, a throw does not poison the
// pool, the destructor drains every queued task, and concurrent submitters
// cannot lose work.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "vodsim/util/thread_pool.h"

namespace vodsim {
namespace {

/// Distinct type so the tests can prove the *original* exception object
/// crosses the pool boundary, not a translation of it.
struct TrialError : std::runtime_error {
  explicit TrialError(std::size_t index)
      : std::runtime_error("trial " + std::to_string(index) + " failed"),
        index(index) {}
  std::size_t index;
};

TEST(ThreadPoolErrors, ParallelForRethrowsFirstFailingIndex) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 10 || i == 40) throw TrialError(i);
      completed.fetch_add(1);
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const TrialError& error) {
    // The lowest failing index wins regardless of which strand ran it
    // first or in what order strands finished.
    EXPECT_EQ(error.index, 10u);
  }
  // Every non-throwing task still ran to completion before the rethrow:
  // parallel_for must not abandon in-flight work.
  EXPECT_EQ(completed.load(), 62);
}

TEST(ThreadPoolErrors, ParallelForEmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  // The pool is still healthy afterwards.
  pool.parallel_for(3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolErrors, ParallelForCountBelowWorkerCountCoversEveryIndex) {
  // Fewer indices than workers: surplus strands must find the cursor
  // exhausted and exit; every index runs exactly once.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolErrors, ParallelForSingleIndexThrowPropagates) {
  // count == 1 runs entirely on the calling thread (no helpers); the
  // exception path must be identical to the pooled one.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(1, [](std::size_t) { throw TrialError(0); }),
               TrialError);
}

TEST(ThreadPoolErrors, PoolSurvivesATaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);

  // The same pool keeps accepting and completing work afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);

  auto future = pool.submit([&] { counter.fetch_add(1); });
  future.get();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPoolErrors, SubmitFutureCarriesTaskException) {
  ThreadPool pool(1);
  auto future = pool.submit([] { throw TrialError(7); });
  try {
    future.get();
    FAIL() << "future.get() swallowed the exception";
  } catch (const TrialError& error) {
    // Let the single worker finish its loop iteration first: it drops the
    // finished task's shared state there, and with it one reference to
    // this exception. That refcount lives in uninstrumented libstdc++, so
    // without this round trip ThreadSanitizer cannot see the ordering
    // between the worker's release and this read and reports a race.
    pool.submit([] {}).get();
    EXPECT_EQ(error.index, 7u);
  }
}

TEST(ThreadPoolNesting, NestedParallelForFromWorkerCompletesInline) {
  // Nested pool usage: an outer parallel_for runs tasks on workers, and
  // each task issues its own parallel_for on the same pool (a sweep trial
  // that fans out work of its own would do this). Before the worker guard
  // this deadlocked
  // whenever every worker blocked joining helper tasks stuck behind the
  // outer tasks themselves. The guard makes nested calls caller-only, so
  // this test both terminates and covers every inner index exactly once.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  ThreadPool pool(2);  // fewer workers than outer tasks forces the hazard
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> nested_on_worker{0};
  pool.parallel_for(kOuter, [&](std::size_t outer) {
    if (ThreadPool::on_pool_worker()) nested_on_worker.fetch_add(1);
    pool.parallel_for(kInner, [&](std::size_t inner) {
      hits[outer * kInner + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "inner index " << i;
  }
  // The caller strand handles some outer indices on the main thread; the
  // guard must have engaged for at least the worker-run ones.
  EXPECT_GE(nested_on_worker.load(), 1);
}

TEST(ThreadPoolNesting, NestedParallelForKeepsExceptionPolicy) {
  // The caller-only fallback must preserve the parallel_for contract:
  // every index runs, and the lowest failing index's exception wins.
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(16, [&](std::size_t i) {
        if (i == 3 || i == 12) throw TrialError(i);
        completed.fetch_add(1);
      });
    });
    FAIL() << "nested parallel_for swallowed the exception";
  } catch (const TrialError& error) {
    EXPECT_EQ(error.index, 3u);
  }
  // Only the first outer task's exception propagates out of the outer
  // call, but every outer task ran its full inner range (14 survivors
  // per outer iteration).
  EXPECT_EQ(completed.load(), 4 * 14);
}

TEST(ThreadPoolNesting, OnPoolWorkerIsFalseOnCallerThread) {
  ThreadPool pool(1);
  EXPECT_FALSE(ThreadPool::on_pool_worker());
  auto future = pool.submit([] { EXPECT_TRUE(ThreadPool::on_pool_worker()); });
  future.get();
  EXPECT_FALSE(ThreadPool::on_pool_worker());
}

TEST(ThreadPoolLifecycle, DestructorDrainsQueuedTasks) {
  // Queue far more slow-ish tasks than workers, then destroy the pool
  // immediately: shutdown must run every queued task, not abandon the queue.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ran.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolLifecycle, ConcurrentSubmittersLoseNoWork) {
  // Several threads hammer submit() while workers drain; every future must
  // resolve and every task must run exactly once.
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 250;
  std::atomic<int> ran{0};
  ThreadPool pool(3);

  std::vector<std::thread> submitters;
  std::vector<std::vector<std::future<void>>> futures(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      futures[static_cast<std::size_t>(s)].reserve(kTasksEach);
      for (int i = 0; i < kTasksEach; ++i) {
        futures[static_cast<std::size_t>(s)].push_back(
            pool.submit([&] { ran.fetch_add(1); }));
      }
    });
  }
  for (auto& submitter : submitters) submitter.join();
  for (auto& batch : futures) {
    for (auto& future : batch) future.get();
  }
  EXPECT_EQ(ran.load(), kSubmitters * kTasksEach);
}

}  // namespace
}  // namespace vodsim
