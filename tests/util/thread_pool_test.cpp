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

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForZeroIterations) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ParallelForSingleIteration) {
  ThreadPool pool(2);
  int value = 0;
  pool.parallel_for(1, [&](std::size_t i) { value = static_cast<int>(i) + 7; });
  EXPECT_EQ(value, 7);
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

TEST(ThreadPoolTest, ParallelForDynamicSpreadsDescendingCosts) {
  // LPT-style descending costs: with dynamic claiming, no single worker can
  // be handed the whole expensive prefix as one contiguous chunk. We can't
  // observe the schedule directly, but we can verify every index runs once
  // under heavy skew and from many concurrent iterations.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    // index 0 is ~1000x the work of the tail
    volatile std::uint64_t sink = 0;
    const std::size_t spins = i == 0 ? 100000 : 100;
    for (std::size_t s = 0; s < spins; ++s) sink = sink + s;
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRethrowsFirstError) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [](std::size_t i) {
                          if (i % 7 == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForErrorStillCoversOrThrows) {
  // Under an error, every index either ran or was abandoned *after* the
  // throw was latched — parallel_for may cut the loop short, but it must
  // never return normally with indices silently dropped.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(256);
  bool threw = false;
  try {
    pool.parallel_for(hits.size(), [&](std::size_t i) {
      if (i == 100) throw std::runtime_error("boom");
      hits[i].fetch_add(1);
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  for (const auto& h : hits) EXPECT_LE(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesExactlyOneError) {
  // The caller-helps path: an exception thrown by an *inner* parallel_for
  // running on a worker that is simultaneously part of the outer loop must
  // surface exactly once at the outer call site (first error wins; no
  // std::terminate from a second in-flight exception, no swallowed error).
  ThreadPool pool(2);
  for (int trial = 0; trial < 20; ++trial) {
    std::atomic<int> caught{0};
    std::atomic<int> outer_done{0};
    try {
      pool.parallel_for(8, [&](std::size_t outer) {
        try {
          pool.parallel_for(8, [&](std::size_t inner) {
            if (outer == 3 && inner == 5) {
              throw std::runtime_error("inner boom");
            }
          });
        } catch (const std::runtime_error&) {
          caught.fetch_add(1);
          throw;  // escalate to the outer loop
        }
        outer_done.fetch_add(1);
      });
      FAIL() << "outer parallel_for swallowed the error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "inner boom");
    }
    // The inner error was observed exactly once and escalated exactly once.
    EXPECT_EQ(caught.load(), 1) << "trial " << trial;
    EXPECT_LE(outer_done.load(), 7) << "trial " << trial;
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A parallel_for issued from inside a pool task must complete even when
  // every worker is busy with the outer loop — the caller-helps design.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ThreadPoolTest, ParallelForInsidePostedJobPropagatesInnerError) {
  // The engine's shape (DESIGN.md §15): a worker owns a rank-launch job —
  // a submit()ted task, not a parallel_for iteration — and issues a nested
  // DPU sweep from inside it. The sweep's error must surface at the job's
  // future, the owning worker must not self-deadlock while it waits for
  // sweep iterations running on other workers (it parks, it does not spin
  // on a queue it may have emptied), and unrelated queued work must still
  // run to completion.
  ThreadPool pool(2);
  for (int trial = 0; trial < 10; ++trial) {
    std::atomic<int> bystander{0};
    std::atomic<int> swept{0};
    auto fut = pool.submit([&] {
      for (int i = 0; i < 4; ++i) {
        pool.post([&bystander] { bystander.fetch_add(1); });
      }
      pool.parallel_for(16, [&](std::size_t i) {
        swept.fetch_add(1);
        if (i == 7) throw std::runtime_error("sweep boom");
      });
    });
    EXPECT_THROW(fut.get(), std::runtime_error);
    // parallel_for covers every index even when one throws, so the sweep
    // ran to completion before rethrowing.
    EXPECT_EQ(swept.load(), 16) << "trial " << trial;
    while (bystander.load() < 4) {
      pool.help_one();
    }
    EXPECT_EQ(bystander.load(), 4) << "trial " << trial;
  }
}

TEST(ThreadPoolTest, NestedParallelForFromPostedJobsDoesNotDeadlock) {
  // Every worker simultaneously owns a job that blocks on its own nested
  // sweep — the rank-pipelining composition. With park-based waiting a
  // fully-subscribed pool must still drain all sweeps.
  ThreadPool pool(2);
  std::vector<std::future<void>> futs;
  std::atomic<int> inner_total{0};
  for (int j = 0; j < 4; ++j) {
    futs.push_back(pool.submit([&] {
      pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
    }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(inner_total.load(), 32);
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
