#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace pimnw {
namespace {

// Work-stealing activity (DESIGN.md §17). The counters double the pool's own
// relaxed atomics into the scrapeable registry: one extra relaxed add per
// task.
struct PoolSeries {
  metrics::Counter& executed;
  metrics::Counter& stolen;
  metrics::Counter& injected;
};

PoolSeries& pool_series() {
  auto& reg = metrics::MetricsRegistry::global();
  static PoolSeries series{
      reg.counter("pimnw_pool_tasks_executed_total",
                  "Tasks executed by pool workers and helping callers"),
      reg.counter("pimnw_pool_tasks_stolen_total",
                  "Tasks acquired by stealing from another worker's deque"),
      reg.counter("pimnw_pool_tasks_injected_total",
                  "Tasks taken from the outside-submitter injector queue"),
  };
  return series;
}

}  // namespace

namespace {

// Which pool (if any) the current thread is a worker of, and its index in
// that pool. Plain thread_locals: each worker thread writes its own pair
// once at startup.
thread_local ThreadPool* tl_pool = nullptr;
thread_local int tl_index = -1;

/// CPU quota of the cgroup this process runs in, in whole cores (rounded
/// up), or 0 when unlimited/undetectable. Checks cgroup v2 (cpu.max:
/// "<quota|max> <period>") then v1 (cfs_quota_us / cfs_period_us, -1 =
/// unlimited). hardware_concurrency() reports the host's cores even inside
/// a 1-core container, so ignoring the quota oversubscribes every pool.
std::size_t cgroup_cpu_limit() {
  std::ifstream v2("/sys/fs/cgroup/cpu.max");
  if (v2) {
    std::string quota;
    double period = 0.0;
    if (v2 >> quota >> period && quota != "max" && period > 0) {
      const double q = std::stod(quota);
      if (q > 0) {
        return static_cast<std::size_t>(std::ceil(q / period));
      }
    }
    return 0;
  }
  std::ifstream quota_f("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream period_f("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  double quota = 0.0;
  double period = 0.0;
  if (quota_f >> quota && period_f >> period && quota > 0 && period > 0) {
    return static_cast<std::size_t>(std::ceil(quota / period));
  }
  return 0;
}

}  // namespace

std::size_t default_worker_threads() {
  std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t limit = cgroup_cpu_limit();
  if (limit > 0) threads = std::min(threads, limit);
  return threads;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = default_worker_threads();
  }
  deques_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    deques_.push_back(std::make_unique<detail::TaskDeque>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  parked_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::worker_index() const {
  return tl_pool == this ? tl_index : -1;
}

void ThreadPool::enqueue(Task* task) {
  const int index = worker_index();
  pending_.fetch_add(1, std::memory_order_seq_cst);
  if (index >= 0) {
    deques_[static_cast<std::size_t>(index)]->push(task);
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    injector_.push_back(task);
  }
  // Wake one sleeper if there might be one. The sleeper's wait predicate
  // reads pending_ under mutex_, and sleepers_ is incremented under mutex_
  // before the predicate is evaluated, so either the sleeper sees our
  // pending_ increment or we see its sleepers_ increment — never a lost
  // wakeup. Notifying under the lock closes the remaining window.
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_one();
  }
  // Same protocol for parked orchestrators: their predicate reads pending_
  // under mutex_ after bumping parked_, so either we see parked_ > 0 here
  // or they see our pending_ increment.
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    parked_cv_.notify_all();
  }
}

void ThreadPool::park(const std::function<bool()>& wake) {
  std::unique_lock<std::mutex> lock(mutex_);
  parked_.fetch_add(1, std::memory_order_seq_cst);
  parked_cv_.wait(lock, [this, &wake] {
    return stop_ || pending_.load(std::memory_order_seq_cst) > 0 || wake();
  });
  parked_.fetch_sub(1, std::memory_order_seq_cst);
}

void ThreadPool::unpark_all() {
  // Taking the mutex orders this notify against a parker that has bumped
  // parked_ but not yet evaluated its predicate; completions are rare (once
  // per batch / ticket), so the lock is not a hot path.
  std::lock_guard<std::mutex> lock(mutex_);
  parked_cv_.notify_all();
}

void ThreadPool::post(std::function<void()> fn) {
  enqueue(new Task(std::move(fn)));
}

ThreadPool::Task* ThreadPool::acquire(int index) {
  const std::size_t n = deques_.size();
  Task* task = nullptr;
  if (index >= 0) {
    task = deques_[static_cast<std::size_t>(index)]->pop();
  }
  if (task == nullptr) {
    // Steal round-robin starting after our own slot (outside threads start
    // at slot 0). FIFO steals take the oldest — for LPT-descending job
    // sequences that is the heaviest still queued, the best steal.
    const std::size_t start = index >= 0 ? static_cast<std::size_t>(index) : 0;
    for (std::size_t k = 1; k <= n && task == nullptr; ++k) {
      task = deques_[(start + k) % n]->steal();
    }
    if (task != nullptr) {
      stolen_.fetch_add(1, std::memory_order_relaxed);
      pool_series().stolen.add(1);
    }
  }
  if (task == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!injector_.empty()) {
      task = injector_.front();
      injector_.pop_front();
      injected_.fetch_add(1, std::memory_order_relaxed);
      pool_series().injected.add(1);
    }
  }
  if (task != nullptr) {
    pending_.fetch_sub(1, std::memory_order_seq_cst);
    executed_.fetch_add(1, std::memory_order_relaxed);
    pool_series().executed.add(1);
  }
  return task;
}

bool ThreadPool::run_one(int index) {
  Task* task = acquire(index);
  if (task == nullptr) return false;
  try {
    (*task)();
  } catch (const std::exception& e) {
    // Only post()ed tasks can get here (submit wraps everything in a
    // packaged_task). post() promises not to throw; surface the broken
    // promise without killing the worker.
    PIMNW_WARN("task posted to ThreadPool threw: " << e.what());
  } catch (...) {
    PIMNW_WARN("task posted to ThreadPool threw a non-std exception");
  }
  delete task;
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_index = static_cast<int>(index);
  trace::set_thread_name("worker " + std::to_string(index));
  while (true) {
    if (run_one(static_cast<int>(index))) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    if (stop_) {
      if (pending_.load(std::memory_order_seq_cst) == 0) return;
      continue;  // drain: tasks are still queued somewhere
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    cv_.wait(lock, [this] {
      return stop_ || pending_.load(std::memory_order_seq_cst) > 0;
    });
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    if (stop_ && pending_.load(std::memory_order_seq_cst) == 0) return;
  }
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace pimnw
