// Work-stealing thread pool with futures. Used by (a) the host execution
// engine to run simulated DPU jobs from multiple in-flight rank-batches and
// (b) the host backends (core/backend.hpp), one job per pair.
//
// Scheduling: each worker owns a Chase–Lev deque. Tasks submitted from a
// worker go to its own deque (LIFO for the owner, cheap and cache-warm);
// tasks submitted from outside the pool go to a mutex-protected injector
// queue. An idle worker pops its own deque, then steals the oldest task
// (FIFO) from the other workers round-robin, then drains the injector, then
// sleeps. Stealing is what keeps the tail of an LPT-sorted batch from
// pinning the whole pool behind one worker (ISSUE 2; cf. the host-side
// orchestration bottlenecks in arXiv:2208.01243).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace pimnw {

/// The worker-thread count every bench/example/default pool uses when the
/// user does not pass an explicit --threads: hardware concurrency clamped by
/// the cgroup CPU quota this process actually runs under (containers and CI
/// runners routinely hand out fewer cores than the host advertises), with a
/// floor of 1. One definition so a future policy change (e.g. honouring
/// CPU affinity masks) lands everywhere at once.
std::size_t default_worker_threads();

namespace detail {

/// Chase–Lev work-stealing deque of heap-allocated task nodes. Single owner
/// pushes/pops at the bottom; any number of thieves steal at the top. The
/// implementation uses seq_cst operations on top/bottom instead of the
/// classic relaxed-plus-fences formulation: the tasks scheduled through it
/// (whole DPU simulations, batch builds) are orders of magnitude more
/// expensive than the ordering cost, and ThreadSanitizer reasons precisely
/// about seq_cst while standalone fences are a known blind spot.
class TaskDeque {
 public:
  using Task = std::function<void()>;

  TaskDeque() : buffer_(new Ring(kInitialCapacity)) {}

  ~TaskDeque() {
    // Drain anything left (only reachable at pool destruction, after all
    // workers joined — no concurrency here).
    Task* t;
    while ((t = pop()) != nullptr) delete t;
    delete buffer_.load(std::memory_order_relaxed);
    for (Ring* r : retired_) delete r;
  }

  TaskDeque(const TaskDeque&) = delete;
  TaskDeque& operator=(const TaskDeque&) = delete;

  /// Owner only.
  void push(Task* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = buffer_.load(std::memory_order_relaxed);
    if (b - t >= ring->capacity) {
      ring = grow(ring, t, b);
    }
    ring->slot(b).store(task, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only. Returns nullptr when empty.
  Task* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    Task* task = nullptr;
    if (t <= b) {
      task = ring->slot(b).load(std::memory_order_relaxed);
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_seq_cst)) {
          task = nullptr;  // a thief won
        }
        bottom_.store(b + 1, std::memory_order_seq_cst);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
    return task;
  }

  /// Any thread. Returns nullptr when empty or when it lost a race (the
  /// caller treats both as "try elsewhere").
  Task* steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Ring* ring = buffer_.load(std::memory_order_acquire);
    Task* task = ring->slot(t).load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      return nullptr;  // the slot value may be stale — never dereferenced
    }
    return task;
  }

  bool empty() const {
    return top_.load(std::memory_order_seq_cst) >=
           bottom_.load(std::memory_order_seq_cst);
  }

 private:
  static constexpr std::int64_t kInitialCapacity = 256;

  struct Ring {
    explicit Ring(std::int64_t cap)
        : capacity(cap), mask(cap - 1),
          slots(new std::atomic<Task*>[static_cast<std::size_t>(cap)]) {}
    std::atomic<Task*>& slot(std::int64_t i) {
      return slots[static_cast<std::size_t>(i & mask)];
    }
    const std::int64_t capacity;
    const std::int64_t mask;
    std::unique_ptr<std::atomic<Task*>[]> slots;
  };

  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    Ring* bigger = new Ring(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) {
      bigger->slot(i).store(old->slot(i).load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    buffer_.store(bigger, std::memory_order_release);
    // The old ring stays alive until destruction: a lagging thief may still
    // read (never dereference without a successful CAS) its slots.
    retired_.push_back(old);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Ring*> buffer_;
  std::vector<Ring*> retired_;  // owner only
};

}  // namespace detail

/// Fixed-size work-stealing thread pool. Tasks are std::function<void()>;
/// submit() returns a future, post() is fire-and-forget. The pool joins its
/// threads on destruction after draining all queues.
class ThreadPool {
 public:
  /// `threads == 0` means default_worker_threads() (hardware concurrency
  /// clamped by the cgroup CPU quota, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Monotonic scheduling counters (relaxed atomics bumped once per task —
  /// noise next to the tasks themselves, which are whole DPU simulations).
  /// `executed` counts every task run, `stolen` the subset a thread took
  /// from another worker's deque, `injected` the subset drained from the
  /// outside-submission queue. Observers (core/stats.hpp) read deltas.
  struct Stats {
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t injected = 0;
  };
  Stats stats() const {
    return {executed_.load(std::memory_order_relaxed),
            stolen_.load(std::memory_order_relaxed),
            injected_.load(std::memory_order_relaxed)};
  }

  /// Index of the calling thread within this pool, or -1 for outside
  /// threads. Lets per-worker state (scratch arenas) be indexed without
  /// locks: a worker is one OS thread, so its slot is never contended.
  int worker_index() const;

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue(new detail::TaskDeque::Task([task]() { (*task)(); }));
    return fut;
  }

  /// Fire-and-forget enqueue (no future allocation). The callable must not
  /// throw; escaped exceptions are logged and swallowed by the worker.
  void post(std::function<void()> fn);

  /// Run one queued task on the calling thread (own deque, then stealing,
  /// then the injector). Returns false when nothing was immediately
  /// runnable. Lets an orchestrator that must block on pool work help
  /// execute it instead of parking a core.
  bool help_one() { return run_one(worker_index()); }

  /// Sleep the calling thread until new pool work is enqueued, the pool is
  /// stopping, or `wake()` returns true — the sleep/notify hook orchestrators
  /// pair with help_one() instead of timed-wait polling: help until the
  /// queues run dry, park, and a producer (enqueue) or a completion
  /// (unpark_all) wakes the thread the moment there is something to do.
  /// `wake` is evaluated with the pool mutex held and must only read atomics
  /// — taking a lock inside it can deadlock against unpark_all callers.
  /// Spurious returns are allowed; callers loop on their own condition.
  void park(const std::function<bool()>& wake);

  /// Wake every thread blocked in park(). Call after making some parked
  /// caller's wake() condition true (e.g. a batch's last job finishing).
  void unpark_all();

 private:
  using Task = detail::TaskDeque::Task;

  void worker_loop(std::size_t index);
  void enqueue(Task* task);
  /// Pop/steal/drain one task for thread `index` (-1 = outside thread).
  /// Decrements pending_ on success.
  Task* acquire(int index);
  /// Acquire and run one task; false when nothing was runnable.
  bool run_one(int index);

  std::vector<std::unique_ptr<detail::TaskDeque>> deques_;
  std::vector<std::thread> workers_;
  std::deque<Task*> injector_;  // guarded by mutex_
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable parked_cv_;  // outside threads blocked in park()
  std::atomic<std::int64_t> pending_{0};  // queued, not yet acquired
  std::atomic<int> sleepers_{0};
  std::atomic<int> parked_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> injected_{0};
  bool stop_ = false;  // guarded by mutex_
};

/// Process-wide default pool (lazily constructed). Benches and the simulator
/// share it so we never oversubscribe the machine.
ThreadPool& global_pool();

}  // namespace pimnw
