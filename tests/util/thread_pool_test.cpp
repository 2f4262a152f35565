#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace pimnw {
namespace {

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 500; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPoolTest, SizeReflectsConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor must wait for the queued work
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, PostedTasksAllRun) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 200; ++i) {
    pool.post([&count, &done] {
      count.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 200) std::this_thread::yield();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WorkerIndexDistinguishesWorkersFromOutside) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.worker_index(), -1);  // the test thread is not a worker
  auto idx0 = pool.submit([&pool] { return pool.worker_index(); }).get();
  EXPECT_GE(idx0, 0);
  EXPECT_LT(idx0, 2);
  // A different pool's workers are outsiders to this one.
  ThreadPool other(1);
  auto cross = other.submit([&pool] { return pool.worker_index(); }).get();
  EXPECT_EQ(cross, -1);
}

TEST(ThreadPoolTest, HelpOneRunsAQueuedTask) {
  // A pool whose single worker is blocked still makes progress when the
  // outside thread helps.
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.post([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  // Wait until the worker holds the blocker, so help_one() below cannot
  // pick it up itself and spin on `release` forever.
  while (!started.load()) std::this_thread::yield();
  std::atomic<int> ran{0};
  pool.post([&ran] { ran.fetch_add(1); });
  while (!pool.help_one()) std::this_thread::yield();
  EXPECT_EQ(ran.load(), 1);
  release.store(true);
}

TEST(ThreadPoolTest, StatsCountExecutedTasks) {
  ThreadPool pool(2);
  const ThreadPool::Stats before = pool.stats();
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) futs.push_back(pool.submit([] {}));
  for (auto& f : futs) f.get();
  const ThreadPool::Stats after = pool.stats();
  EXPECT_GE(after.executed - before.executed, 100u);
  // submit() from a non-worker goes through the injector queue.
  EXPECT_GE(after.injected - before.injected, 100u);
  EXPECT_GE(after.stolen, before.stolen);
}

TEST(ThreadPoolTest, ParkWakesOnPredicate) {
  // park() is the sleep/notify half of the engine's wait_for: the waiter
  // sleeps (no polling) until unpark_all() fires after the predicate's
  // atomic flips. The predicate must only read atomics (documented
  // lock-ordering rule), which this test mirrors.
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  std::thread completer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    done.store(true, std::memory_order_seq_cst);
    pool.unpark_all();
  });
  while (!done.load(std::memory_order_seq_cst)) {
    if (!pool.help_one()) {
      pool.park([&done] { return done.load(std::memory_order_seq_cst); });
    }
  }
  completer.join();
  EXPECT_TRUE(done.load());
}

TEST(ThreadPoolTest, ParkWakesOnEnqueue) {
  // A parked waiter must also wake when new work arrives, so it can help
  // instead of sleeping under a filling queue. The task signals completion
  // via unpark_all, the engine's job_done pattern — a bare predicate store
  // would race the parker back to sleep.
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  std::thread submitter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    pool.post([&] {
      ran.store(true, std::memory_order_seq_cst);
      pool.unpark_all();
    });
  });
  while (!ran.load(std::memory_order_seq_cst)) {
    if (!pool.help_one()) {
      pool.park([&ran] { return ran.load(std::memory_order_seq_cst); });
    }
  }
  submitter.join();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace pimnw
