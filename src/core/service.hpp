// Streaming alignment service (ISSUE 7, DESIGN.md §14).
//
// Everything below the dispatcher is batch-shaped: the PiM host wants
// rank-sized batches (64 DPUs × P pools × several pairs each) before a
// launch amortizes its transfer and launch overheads. A read mapper or an
// alignment RPC server is request-shaped: many client threads each hold ONE
// pair and want ONE answer, with a latency budget. AlignService bridges the
// two:
//
//  * submit() is lock-free on the producer side — a Treiber-stack CAS push
//    plus a couple of relaxed-to-seq_cst atomic counters. Client threads
//    never take a mutex on the hot path (the only mutex they can touch is
//    the coalescer wake lock, and only when the coalescer is asleep).
//
//  * A dedicated coalescer thread drains the stack in arrival order and
//    forms batches under a time/size admission window: flush when
//    max_batch_pairs are waiting (a "full" flush — the rank-sized fast
//    path) or when the oldest admitted request has waited max_linger
//    ("linger" — the latency bound), or on stop() ("drain"). The coalescer
//    is a plain std::thread, which keeps Dispatcher::align off the worker
//    pool — the PiM simulation legally runs on it (see core/backend.hpp).
//
//  * Backpressure is modeled, not guessed: every admitted pair is charged
//    its Dispatcher::min_estimate_seconds — the cheapest calibrated backend
//    estimate, i.e. the work the pair will cost under cost-model routing —
//    into an atomic backlog. When the backlog (or a plain pair-count cap)
//    exceeds the configured capacity, submit() either rejects with
//    PairStatus::kQueueFull (default — the caller sheds load) or blocks
//    until the queue drains (block_when_full). Past saturation this bounds
//    p99: requests fail fast instead of queueing without bound.
//
// Results are bit-identical to PimAligner::run_batches for the same pairs:
// the service changes only *when* pairs are dispatched, never the
// arithmetic. Per-pair modeled cycles and DMA bytes are batch-composition
// independent by construction (pool-critical-path deltas; see engine.cpp),
// so even coalescing-dependent batch shapes cannot perturb them —
// service_test pins scores, CIGARs, cycles and DMA against a direct
// align_pairs run.
//
// Threading contract: the dispatcher and its backends belong to the service
// while it runs — do not call Dispatcher::align (or the backends) from
// other threads between construction and stop(). submit() is safe from any
// number of threads. stop() drains: every admitted request is flushed and
// resolved before the coalescer exits; submissions that race stop() resolve
// as kShutdown, never hang.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dispatch.hpp"
#include "core/types.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace pimnw::core {

struct ServiceConfig {
  /// Flush as soon as this many pairs are waiting. 0 = rank-sized auto
  /// (rank_batch_pairs, the rule PimAligner uses for its auto batch) on the
  /// pools of the registered PiM backend — kPim first, then kPimWfa — or on
  /// the default PoolConfig (768 pairs) when no PiM backend is registered.
  std::size_t max_batch_pairs = 0;
  /// Flush when the oldest admitted request has waited this long, even if
  /// the batch is not full — the latency bound under light load.
  double max_linger_seconds = 2e-3;
  /// Admission cap on pairs admitted but not yet completed (0 = none).
  std::size_t max_queue_pairs = 0;
  /// Admission cap on the modeled backlog: Σ min_estimate_seconds over
  /// admitted-but-incomplete pairs (0 = none). This is the latency a new
  /// request would queue behind, so capping it caps p99 under overload.
  double max_backlog_seconds = 0.0;
  /// When a cap is hit: false = reject with kQueueFull (shed load), true =
  /// block the submitting thread until capacity frees (closed-loop client).
  bool block_when_full = false;
  /// Deadline-storm black box: when one coalescer sweep expires at least
  /// this many deadlines (0 = disabled), dump the flight recorder to
  /// `storm_dump_path` (once per service lifetime).
  std::size_t storm_dump_threshold = 0;
  std::string storm_dump_path;
};

/// What a client's future resolves to: the alignment plus the request's own
/// latency decomposition (wall-clock, by the service's steady clock).
struct ServiceResult {
  PairOutput output;
  /// submit() return → the flush that carried the pair (batch formation).
  double queue_seconds = 0.0;
  /// submit() return → result ready (queue + dispatch).
  double total_seconds = 0.0;
  /// 1-based id of the carrying flush; 0 when never dispatched (rejected /
  /// deadline / shutdown).
  std::uint64_t batch_id = 0;
  /// Pairs in that flush — the fill the request shared its launch with.
  std::size_t batch_pairs = 0;
};

/// Exact (nearest-rank) sample quantiles — no interpolation, so tests can
/// pin them against hand-computed values.
struct LatencyStats {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Nearest-rank quantile of an ascending-sorted sample set: the smallest
/// element whose cumulative rank reaches q (q in (0, 1]); sorted[ceil(q·n)-1].
double exact_quantile(const std::vector<double>& sorted_ascending, double q);

/// Sort a copy of `seconds` and fill a LatencyStats (values in ms).
LatencyStats summarize_latencies(const std::vector<double>& seconds);

/// Exact latency quantiles of a run's dispatched requests (batch_id != 0).
/// The service keeps no per-request samples: a caller that wants exact
/// per-run numbers keeps its ServiceResults and summarizes them here.
struct RequestLatencies {
  LatencyStats queue_wait;     // submit → flush
  LatencyStats total_latency;  // submit → resolve
};
RequestLatencies summarize_dispatched(
    const std::vector<ServiceResult>& results);

struct ServiceMetrics {
  std::uint64_t submitted = 0;   // submit() calls, any outcome
  std::uint64_t completed = 0;   // dispatched and resolved
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t flushes_full = 0;    // size-triggered (rank-sized fast path)
  std::uint64_t flushes_linger = 0;  // time-triggered
  std::uint64_t flushes_drain = 0;   // stop() drain
  /// Dispatched pairs / (flushes × max_batch_pairs): 1.0 = every launch
  /// rank-sized, → 0 = latency-bound trickle.
  double batch_fill_mean = 0.0;
  /// High-water marks over the run.
  std::uint64_t max_queue_depth = 0;
  double max_backlog_seconds = 0.0;
  /// Coalescer wall-clock inside Dispatcher::align — the saturation
  /// denominator (busy/elapsed → how loaded the backend stage is).
  double busy_seconds = 0.0;
  /// Modeled PiM makespan summed over flushes (BackendReport.modeled_seconds
  /// across backends; 0 when only host backends ran). Launches are
  /// rank-granular on the modeled device, so this is where coalescing pays:
  /// a batch=1 flush bills a whole launch for one pair's work.
  double modeled_seconds = 0.0;
};

class AlignService {
 public:
  /// The dispatcher is borrowed and must outlive the service; see the
  /// threading contract in the file comment.
  explicit AlignService(Dispatcher* dispatcher, ServiceConfig config = {});
  ~AlignService();  // stop()

  AlignService(const AlignService&) = delete;
  AlignService& operator=(const AlignService&) = delete;

  /// Submit one pair. The sequence views must stay alive until the returned
  /// future resolves. `deadline_seconds` (0 = none) is a relative budget:
  /// if the request is still queued when it expires, it resolves as
  /// kDeadlineExceeded at the next flush instead of being dispatched.
  /// Never blocks unless block_when_full; never throws on overload — every
  /// admission failure is a PairStatus on the future.
  std::future<ServiceResult> submit(PairInput pair,
                                    double deadline_seconds = 0.0);

  /// Flush every admitted request, resolve every future, join the
  /// coalescer. Idempotent; the destructor calls it.
  void stop();

  /// Snapshot of the counters so far; cheap enough to poll. Latency lives
  /// in each request's ServiceResult (exact, per run — see
  /// summarize_dispatched) and in the registry histograms (live,
  /// process-wide, bucketed).
  ServiceMetrics metrics() const;

  /// The resolved configuration (max_batch_pairs after the auto rule).
  const ServiceConfig& config() const { return config_; }

 private:
  struct Request {
    PairInput pair;
    std::promise<ServiceResult> promise;
    double submit_seconds = 0.0;    // service clock at admission
    double deadline_seconds = 0.0;  // absolute on the service clock; 0=none
    double submit_us = 0.0;         // trace timestamp (0 when tracing off)
    std::uint64_t cost_us = 0;      // backlog charge to undo at completion
    Request* next = nullptr;        // Treiber-stack link
  };

  enum class FlushKind { kFull, kLinger, kDrain };

  void coalescer_main();
  /// Dispatch `batch` (arrival order), resolve its futures, undo its
  /// admission charges. Expired-deadline requests must already be filtered.
  void flush(std::vector<Request*>& batch, FlushKind kind);
  /// Resolve a request without dispatching it (reject / deadline expiry /
  /// shutdown), undoing its admission charges if it was admitted.
  void resolve_undispatched(Request* request, PairStatus status,
                            bool was_admitted);
  void undo_admission(const Request& request);
  /// Record `count` deadline-SLO events into both burn windows and refresh
  /// the exported burn gauges.
  void record_slo(double now_seconds, bool good, std::size_t count = 1);
  /// Pop the whole incoming stack and append it to `pending` in arrival
  /// order.
  void drain_incoming(std::vector<Request*>& pending);

  Dispatcher* dispatcher_;
  ServiceConfig config_;
  Stopwatch clock_;  // all Request timestamps are on this clock

  // Producer side: lock-free MPSC stack + admission accounting.
  std::atomic<Request*> incoming_{nullptr};
  std::atomic<std::uint64_t> queued_pairs_{0};
  std::atomic<std::uint64_t> backlog_us_{0};
  std::atomic<bool> stopping_{false};

  // Coalescer sleep protocol (Dekker, as ThreadPool::enqueue): the
  // coalescer sets idle_ (seq_cst) *then* rechecks incoming_; producers
  // push (seq_cst CAS) *then* read idle_ — at least one side sees the
  // other, so no push is ever slept through.
  std::atomic<bool> idle_{false};
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  // block_when_full submitters wait here; flush() notifies on undo.
  std::mutex space_mutex_;
  std::condition_variable space_cv_;

  // Submits inside their stopping_ check → stack push window. stop() waits
  // for this to reach zero after raising stopping_, so no push can land
  // after its final sweep of the stack (which would strand a future).
  std::atomic<int> in_flight_submits_{0};
  std::mutex stop_mutex_;  // serializes concurrent stop() calls

  // Counters producers touch stay atomic (submit takes no mutex); the
  // flush-side aggregates are mutex-guarded and touched once per flush, not
  // per request.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> rejected_deadline_{0};
  std::atomic<std::uint64_t> rejected_shutdown_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> max_backlog_us_{0};
  mutable std::mutex metrics_mutex_;
  std::uint64_t completed_ = 0;
  std::uint64_t flushes_full_ = 0;
  std::uint64_t flushes_linger_ = 0;
  std::uint64_t flushes_drain_ = 0;
  std::uint64_t dispatched_pairs_ = 0;
  double busy_seconds_ = 0.0;
  double modeled_seconds_ = 0.0;

  /// Deadline-miss burn windows behind the exported burn-rate gauges.
  metrics::SloBurnWindow slo_short_;
  metrics::SloBurnWindow slo_long_;
  std::atomic<bool> storm_dumped_{false};

  std::uint64_t next_batch_id_ = 0;  // coalescer-only
  std::thread coalescer_;
};

}  // namespace pimnw::core
