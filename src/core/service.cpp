#include "core/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/params.hpp"
#include "util/check.hpp"
#include "util/flight_recorder.hpp"
#include "util/logging.hpp"
#include "util/trace.hpp"

namespace pimnw::core {

namespace {

// Deadline-miss SLO behind the burn-rate gauges: the target fraction of
// admitted requests that resolve without kDeadlineExceeded (burn rate 1.0 =
// consuming the error budget exactly as fast as the objective allows), over
// a short (paging) and a long (ticket) window — the standard multi-window
// alert shape.
constexpr double kSloObjective = 0.999;
constexpr double kSloShortWindowSeconds = 60.0;
constexpr double kSloLongWindowSeconds = 600.0;

// Prometheus series for the service front door (DESIGN.md §17). Created on
// first use; the handles are stable for the process lifetime. All pure
// observers — none of these values feeds admission or dispatch decisions
// (backpressure reads its own atomics, as before).
struct ServiceSeries {
  metrics::Gauge& queue_depth;
  metrics::Gauge& backlog_seconds;
  metrics::Counter& admitted_full;
  metrics::Counter& admitted_linger;
  metrics::Counter& admitted_drain;
  metrics::Counter& rejected_queue_full;
  metrics::Counter& rejected_deadline;
  metrics::Counter& rejected_shutdown;
  metrics::Counter& rejected_oversized;
  metrics::Histogram& queue_wait_seconds;
  metrics::Histogram& total_latency_seconds;
  metrics::Gauge& burn_short;
  metrics::Gauge& burn_long;
};

ServiceSeries& service_series() {
  auto& reg = metrics::MetricsRegistry::global();
  static ServiceSeries series{
      reg.gauge("pimnw_service_queue_depth",
                "Pairs admitted but not yet completed"),
      reg.gauge("pimnw_service_backlog_seconds",
                "Modeled backlog: sum of min_estimate_seconds over queued "
                "pairs"),
      reg.counter("pimnw_service_admitted_pairs_total",
                  "Pairs dispatched, by the flush kind that carried them",
                  {{"flush", "full"}}),
      reg.counter("pimnw_service_admitted_pairs_total",
                  "Pairs dispatched, by the flush kind that carried them",
                  {{"flush", "linger"}}),
      reg.counter("pimnw_service_admitted_pairs_total",
                  "Pairs dispatched, by the flush kind that carried them",
                  {{"flush", "drain"}}),
      reg.counter("pimnw_service_rejected_total",
                  "Requests resolved without a successful alignment",
                  {{"reason", "queue_full"}}),
      reg.counter("pimnw_service_rejected_total",
                  "Requests resolved without a successful alignment",
                  {{"reason", "deadline"}}),
      reg.counter("pimnw_service_rejected_total",
                  "Requests resolved without a successful alignment",
                  {{"reason", "shutdown"}}),
      reg.counter("pimnw_service_rejected_total",
                  "Requests resolved without a successful alignment",
                  {{"reason", "oversized"}}),
      reg.histogram("pimnw_service_queue_wait_seconds",
                    "submit() -> carrying flush"),
      reg.histogram("pimnw_service_total_latency_seconds",
                    "submit() -> result ready"),
      reg.gauge("pimnw_service_slo_burn_rate",
                "Deadline-miss burn rate: miss_ratio / (1 - objective)",
                {{"window", "short"}}),
      reg.gauge("pimnw_service_slo_burn_rate",
                "Deadline-miss burn rate: miss_ratio / (1 - objective)",
                {{"window", "long"}}),
  };
  return series;
}

const char* flush_kind_name(int kind) {
  switch (kind) {
    case 0:
      return "full";
    case 1:
      return "linger";
    case 2:
      return "drain";
  }
  return "?";
}

/// CAS-max on a high-water mark.
void raise(std::atomic<std::uint64_t>& mark, std::uint64_t value) {
  std::uint64_t current = mark.load(std::memory_order_relaxed);
  while (value > current &&
         !mark.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

/// A future already resolved to an undispatched status.
std::future<ServiceResult> rejected_future(PairStatus status) {
  std::promise<ServiceResult> promise;
  std::future<ServiceResult> future = promise.get_future();
  ServiceResult result;
  result.output.ok = false;
  result.output.status = status;
  promise.set_value(std::move(result));
  return future;
}

}  // namespace

double exact_quantile(const std::vector<double>& sorted_ascending, double q) {
  if (sorted_ascending.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted_ascending.size()));
  std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= sorted_ascending.size()) index = sorted_ascending.size() - 1;
  return sorted_ascending[index];
}

LatencyStats summarize_latencies(const std::vector<double>& seconds) {
  LatencyStats stats;
  stats.count = seconds.size();
  if (seconds.empty()) return stats;
  std::vector<double> sorted(seconds);
  std::sort(sorted.begin(), sorted.end());
  const double sum = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  stats.mean_ms = sum / static_cast<double>(sorted.size()) * 1e3;
  stats.p50_ms = exact_quantile(sorted, 0.50) * 1e3;
  stats.p90_ms = exact_quantile(sorted, 0.90) * 1e3;
  stats.p99_ms = exact_quantile(sorted, 0.99) * 1e3;
  stats.max_ms = sorted.back() * 1e3;
  return stats;
}

RequestLatencies summarize_dispatched(
    const std::vector<ServiceResult>& results) {
  std::vector<double> queue_seconds;
  std::vector<double> total_seconds;
  for (const ServiceResult& result : results) {
    if (result.batch_id == 0) continue;
    queue_seconds.push_back(result.queue_seconds);
    total_seconds.push_back(result.total_seconds);
  }
  return {summarize_latencies(queue_seconds),
          summarize_latencies(total_seconds)};
}

AlignService::AlignService(Dispatcher* dispatcher, ServiceConfig config)
    : dispatcher_(dispatcher),
      config_(config),
      slo_short_(kSloShortWindowSeconds, kSloObjective),
      slo_long_(kSloLongWindowSeconds, kSloObjective) {
  PIMNW_CHECK_MSG(dispatcher_ != nullptr, "service needs a dispatcher");
  // Rank-sized auto, as PimAligner::align_pairs sizes its batch, on the
  // pools of whichever PiM kernel is registered.
  PoolConfig pool;
  for (const BackendKind kind : {BackendKind::kPim, BackendKind::kPimWfa}) {
    if (const AlignerBackend* b = dispatcher_->backend(kind)) {
      // kind() == kPim or kPimWfa implies the concrete type.
      pool = static_cast<const PimBackend*>(b)->aligner_config().pool;
      break;
    }
  }
  config_.max_batch_pairs = rank_batch_pairs(config_.max_batch_pairs, pool);
  PIMNW_CHECK_MSG(config_.max_linger_seconds > 0,
                  "max_linger_seconds must be positive");
  coalescer_ = std::thread([this] { coalescer_main(); });
}

AlignService::~AlignService() { stop(); }

std::future<ServiceResult> AlignService::submit(PairInput pair,
                                                double deadline_seconds) {
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Hold stop() open until the push (or rejection) lands: stop() waits for
  // in_flight_submits_ == 0 after raising stopping_, so its final stack
  // sweep is guaranteed to run after every push that saw stopping_ false.
  in_flight_submits_.fetch_add(1, std::memory_order_seq_cst);
  struct SubmitGuard {
    std::atomic<int>& counter;
    ~SubmitGuard() { counter.fetch_sub(1, std::memory_order_seq_cst); }
  } guard{in_flight_submits_};

  if (stopping_.load(std::memory_order_seq_cst)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    service_series().rejected_shutdown.add(1);
    return rejected_future(PairStatus::kShutdown);
  }

  // Admission: charge the pair's cheapest calibrated estimate into the
  // modeled backlog, then check the caps. The transient overshoot between
  // a doomed charge and its undo can spuriously reject a concurrent
  // submitter — the caps are soft by one racing request, never violated
  // from below.
  const double cost =
      dispatcher_->min_estimate_seconds(pair.a.size(), pair.b.size());
  const std::uint64_t cost_us =
      cost > 0 ? static_cast<std::uint64_t>(cost * 1e6) : 0;
  const std::uint64_t backlog_cap_us =
      config_.max_backlog_seconds > 0
          ? static_cast<std::uint64_t>(config_.max_backlog_seconds * 1e6)
          : 0;
  auto try_admit = [&](std::uint64_t* depth_out, std::uint64_t* backlog_out) {
    const std::uint64_t depth =
        queued_pairs_.fetch_add(1, std::memory_order_seq_cst) + 1;
    const std::uint64_t backlog =
        backlog_us_.fetch_add(cost_us, std::memory_order_seq_cst) + cost_us;
    const bool over =
        (config_.max_queue_pairs != 0 && depth > config_.max_queue_pairs) ||
        (backlog_cap_us != 0 && backlog > backlog_cap_us);
    if (over) {
      queued_pairs_.fetch_sub(1, std::memory_order_seq_cst);
      backlog_us_.fetch_sub(cost_us, std::memory_order_seq_cst);
      return false;
    }
    *depth_out = depth;
    *backlog_out = backlog;
    return true;
  };

  std::uint64_t depth = 0;
  std::uint64_t backlog = 0;
  if (!try_admit(&depth, &backlog)) {
    if (!config_.block_when_full) {
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      service_series().rejected_queue_full.add(1);
      return rejected_future(PairStatus::kQueueFull);
    }
    // Closed-loop client: wait for capacity. flush() notifies space_cv_
    // under space_mutex_ after undoing a batch's charges, and stop()
    // notifies before waiting out in-flight submits, so this cannot miss a
    // wakeup or deadlock a stopping service.
    std::unique_lock<std::mutex> lock(space_mutex_);
    for (;;) {
      if (stopping_.load(std::memory_order_seq_cst)) {
        rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
        service_series().rejected_shutdown.add(1);
        return rejected_future(PairStatus::kShutdown);
      }
      if (try_admit(&depth, &backlog)) break;
      space_cv_.wait(lock);
    }
  }
  raise(max_queue_depth_, depth);
  raise(max_backlog_us_, backlog);
  ServiceSeries& series = service_series();
  series.queue_depth.set(static_cast<double>(depth));
  series.backlog_seconds.set(static_cast<double>(backlog) / 1e6);

  Request* request = new Request;
  request->pair = pair;
  request->submit_seconds = clock_.seconds();
  request->deadline_seconds =
      deadline_seconds > 0 ? request->submit_seconds + deadline_seconds : 0.0;
  request->submit_us = trace::enabled() ? trace::now_us() : 0.0;
  request->cost_us = cost_us;
  std::future<ServiceResult> future = request->promise.get_future();

  Request* head = incoming_.load(std::memory_order_relaxed);
  do {
    request->next = head;
  } while (!incoming_.compare_exchange_weak(head, request,
                                            std::memory_order_seq_cst,
                                            std::memory_order_relaxed));

  // Dekker wake (see the header): push (seq_cst) then read idle_; the
  // coalescer stores idle_ then re-reads incoming_ — one side always sees
  // the other.
  if (idle_.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_one();
  }
  return future;
}

void AlignService::drain_incoming(std::vector<Request*>& pending) {
  Request* head = incoming_.exchange(nullptr, std::memory_order_seq_cst);
  // The stack pops newest-first; reverse the popped run back to arrival
  // order before appending.
  const std::size_t at = pending.size();
  for (Request* r = head; r != nullptr; r = r->next) pending.push_back(r);
  std::reverse(pending.begin() + static_cast<std::ptrdiff_t>(at),
               pending.end());
}

void AlignService::record_slo(double now_seconds, bool good,
                              std::size_t count) {
  if (count == 0) return;
  slo_short_.record(now_seconds, good, count);
  slo_long_.record(now_seconds, good, count);
  ServiceSeries& series = service_series();
  series.burn_short.set(slo_short_.burn_rate(now_seconds));
  series.burn_long.set(slo_long_.burn_rate(now_seconds));
}

void AlignService::undo_admission(const Request& request) {
  queued_pairs_.fetch_sub(1, std::memory_order_seq_cst);
  backlog_us_.fetch_sub(request.cost_us, std::memory_order_seq_cst);
  if (config_.block_when_full) {
    std::lock_guard<std::mutex> lock(space_mutex_);
    space_cv_.notify_all();
  }
}

void AlignService::resolve_undispatched(Request* request, PairStatus status,
                                        bool was_admitted) {
  if (was_admitted) undo_admission(*request);
  const double now = clock_.seconds();
  ServiceResult result;
  result.output.ok = false;
  result.output.status = status;
  result.queue_seconds = now - request->submit_seconds;
  result.total_seconds = result.queue_seconds;
  request->promise.set_value(std::move(result));
  delete request;
}

void AlignService::flush(std::vector<Request*>& batch, FlushKind kind) {
  PIMNW_CHECK(!batch.empty());
  const std::uint64_t id = ++next_batch_id_;
  const double flush_seconds = clock_.seconds();

  std::vector<PairInput> inputs;
  inputs.reserve(batch.size());
  for (const Request* r : batch) inputs.push_back(r->pair);

  if (trace::enabled()) {
    // Queue-wait lane: the span a request spent forming this batch (the
    // oldest request bounds them all), next to the dispatch span below.
    const Request* oldest = batch.front();
    if (oldest->submit_us > 0) {
      trace::complete_span("queue b" + std::to_string(id), oldest->submit_us,
                           trace::now_us() - oldest->submit_us);
    }
    trace::counter("service.queue_depth",
                   static_cast<double>(
                       queued_pairs_.load(std::memory_order_relaxed)));
    trace::counter("service.backlog_ms",
                   static_cast<double>(
                       backlog_us_.load(std::memory_order_relaxed)) /
                       1e3);
  }

  std::vector<PairOutput> outputs;
  double modeled_seconds = 0.0;
  Stopwatch busy;
  {
    PIMNW_TRACE_SPAN("dispatch b" + std::to_string(id) + " " +
                     flush_kind_name(static_cast<int>(kind)) + " x" +
                     std::to_string(batch.size()));
    const DispatchReport report = dispatcher_->align(inputs, &outputs);
    for (const BackendReport& backend : report.backends) {
      modeled_seconds += backend.modeled_seconds;
    }
  }
  const double busy_seconds = busy.seconds();
  const double done_seconds = clock_.seconds();
  PIMNW_CHECK(outputs.size() == batch.size());

  // Undo the whole batch's admission charges in one shot before resolving
  // futures, so blocked submitters contend for the freed capacity once.
  std::uint64_t batch_cost_us = 0;
  for (const Request* r : batch) batch_cost_us += r->cost_us;
  queued_pairs_.fetch_sub(batch.size(), std::memory_order_seq_cst);
  backlog_us_.fetch_sub(batch_cost_us, std::memory_order_seq_cst);
  if (config_.block_when_full) {
    std::lock_guard<std::mutex> lock(space_mutex_);
    space_cv_.notify_all();
  }

  std::vector<ServiceResult> results(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    results[i].output = std::move(outputs[i]);
    results[i].queue_seconds = flush_seconds - batch[i]->submit_seconds;
    results[i].total_seconds = done_seconds - batch[i]->submit_seconds;
    results[i].batch_id = id;
    results[i].batch_pairs = batch.size();
  }

  // Record the flush's metrics BEFORE resolving any future: a client that
  // observed its future ready must see the flush in metrics().
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    completed_ += batch.size();
    dispatched_pairs_ += batch.size();
    switch (kind) {
      case FlushKind::kFull:
        ++flushes_full_;
        break;
      case FlushKind::kLinger:
        ++flushes_linger_;
        break;
      case FlushKind::kDrain:
        ++flushes_drain_;
        break;
    }
    busy_seconds_ += busy_seconds;
    modeled_seconds_ += modeled_seconds;
  }

  // Live telemetry for the flush (pure observers, outside metrics_mutex_).
  ServiceSeries& series = service_series();
  switch (kind) {
    case FlushKind::kFull:
      series.admitted_full.add(batch.size());
      break;
    case FlushKind::kLinger:
      series.admitted_linger.add(batch.size());
      break;
    case FlushKind::kDrain:
      series.admitted_drain.add(batch.size());
      break;
  }
  std::uint64_t oversized = 0;
  for (const ServiceResult& result : results) {
    series.queue_wait_seconds.record(result.queue_seconds);
    series.total_latency_seconds.record(result.total_seconds);
    if (!result.output.ok && result.output.status == PairStatus::kOversized) {
      ++oversized;
    }
  }
  if (oversized > 0) series.rejected_oversized.add(oversized);
  series.queue_depth.set(
      static_cast<double>(queued_pairs_.load(std::memory_order_relaxed)));
  series.backlog_seconds.set(
      static_cast<double>(backlog_us_.load(std::memory_order_relaxed)) / 1e6);
  // Every dispatched request beat its deadline (expiries were filtered
  // before the flush), so they all count as SLO-good at completion time.
  record_slo(done_seconds, /*good=*/true, batch.size());
  flight_record(FlightEventKind::kFlush,
                "flush b" + std::to_string(id) + " kind=" +
                    flush_kind_name(static_cast<int>(kind)) + " pairs=" +
                    std::to_string(batch.size()) + " busy_ms=" +
                    std::to_string(busy_seconds * 1e3));

  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i]->promise.set_value(std::move(results[i]));
    delete batch[i];
  }
}

void AlignService::coalescer_main() {
  trace::set_thread_name("service");
  std::vector<Request*> pending;  // admitted, arrival order
  for (;;) {
    drain_incoming(pending);

    // Expire deadlines before forming a batch: a request whose budget ran
    // out while queued resolves as kDeadlineExceeded instead of burning a
    // dispatch slot. Granularity is the wake cadence (≤ max_linger).
    if (!pending.empty()) {
      const double now = clock_.seconds();
      std::size_t keep = 0;
      std::size_t expired = 0;
      for (std::size_t i = 0; i < pending.size(); ++i) {
        Request* r = pending[i];
        if (r->deadline_seconds > 0 && now > r->deadline_seconds) {
          rejected_deadline_.fetch_add(1, std::memory_order_relaxed);
          ++expired;
          resolve_undispatched(r, PairStatus::kDeadlineExceeded,
                               /*was_admitted=*/true);
        } else {
          pending[keep++] = r;
        }
      }
      pending.resize(keep);
      if (expired > 0) {
        record_slo(now, /*good=*/false, expired);
        service_series().rejected_deadline.add(expired);
        flight_record(FlightEventKind::kNote,
                      "deadline sweep expired " + std::to_string(expired) +
                          " of " + std::to_string(keep + expired) +
                          " queued requests");
        // Deadline storm: one sweep shedding a burst of requests is the
        // overload signature worth a black box. Dump once per service.
        if (config_.storm_dump_threshold > 0 &&
            expired >= config_.storm_dump_threshold &&
            !storm_dumped_.exchange(true, std::memory_order_relaxed) &&
            !config_.storm_dump_path.empty()) {
          if (FlightRecorder::global().dump_to_file(
                  config_.storm_dump_path,
                  "deadline_storm: " + std::to_string(expired) +
                      " expiries in one sweep")) {
            PIMNW_WARN("deadline storm: dumped flight recorder to "
                       << config_.storm_dump_path);
          }
        }
      }
    }

    if (pending.empty()) {
      if (stopping_.load(std::memory_order_seq_cst) &&
          incoming_.load(std::memory_order_seq_cst) == nullptr) {
        break;
      }
      idle_.store(true, std::memory_order_seq_cst);
      {
        std::unique_lock<std::mutex> lock(wake_mutex_);
        wake_cv_.wait(lock, [this] {
          return incoming_.load(std::memory_order_seq_cst) != nullptr ||
                 stopping_.load(std::memory_order_seq_cst);
        });
      }
      idle_.store(false, std::memory_order_seq_cst);
      continue;
    }

    if (pending.size() >= config_.max_batch_pairs) {
      const auto cut =
          pending.begin() +
          static_cast<std::ptrdiff_t>(config_.max_batch_pairs);
      std::vector<Request*> batch(pending.begin(), cut);
      pending.erase(pending.begin(), cut);
      flush(batch, FlushKind::kFull);
      continue;
    }
    if (stopping_.load(std::memory_order_seq_cst)) {
      flush(pending, FlushKind::kDrain);
      pending.clear();
      continue;
    }
    const double waited = clock_.seconds() - pending.front()->submit_seconds;
    if (waited >= config_.max_linger_seconds) {
      flush(pending, FlushKind::kLinger);
      pending.clear();
      continue;
    }

    // Under-full and inside the window: sleep out the linger remainder,
    // waking early for new pushes (they may complete the batch) or stop.
    idle_.store(true, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait_for(
          lock,
          std::chrono::duration<double>(config_.max_linger_seconds - waited),
          [this] {
            return incoming_.load(std::memory_order_seq_cst) != nullptr ||
                   stopping_.load(std::memory_order_seq_cst);
          });
    }
    idle_.store(false, std::memory_order_seq_cst);
  }
}

void AlignService::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  stopping_.store(true, std::memory_order_seq_cst);
  // Wake blocked submitters first (they resolve as kShutdown and release
  // their in-flight guard), then wait out every submit that started before
  // stopping_ was visible — after this loop no new push can appear.
  {
    std::lock_guard<std::mutex> lock(space_mutex_);
    space_cv_.notify_all();
  }
  while (in_flight_submits_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_all();
  }
  if (coalescer_.joinable()) coalescer_.join();
  // Pushes that raced the coalescer's exit (submit saw stopping_ false,
  // coalescer's final drain ran first). The in-flight wait above ordered
  // them before this sweep, so none can be stranded.
  std::vector<Request*> leftovers;
  drain_incoming(leftovers);
  for (Request* r : leftovers) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    service_series().rejected_shutdown.add(1);
    resolve_undispatched(r, PairStatus::kShutdown, /*was_admitted=*/true);
  }
}

ServiceMetrics AlignService::metrics() const {
  ServiceMetrics m;
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  m.rejected_deadline = rejected_deadline_.load(std::memory_order_relaxed);
  m.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  m.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  m.max_backlog_seconds =
      static_cast<double>(max_backlog_us_.load(std::memory_order_relaxed)) /
      1e6;
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  m.completed = completed_;
  m.flushes_full = flushes_full_;
  m.flushes_linger = flushes_linger_;
  m.flushes_drain = flushes_drain_;
  const std::uint64_t flushes =
      flushes_full_ + flushes_linger_ + flushes_drain_;
  m.batch_fill_mean =
      flushes > 0 ? static_cast<double>(dispatched_pairs_) /
                        (static_cast<double>(flushes) *
                         static_cast<double>(config_.max_batch_pairs))
                  : 0.0;
  m.busy_seconds = busy_seconds_;
  m.modeled_seconds = modeled_seconds_;
  return m;
}

}  // namespace pimnw::core
