#include "core/backend.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "core/load_balance.hpp"
#include "core/wfa_kernel.hpp"
#include "dna/alphabet.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pimnw::core {
namespace {

/// Simulation wall-clock throughput the modeled backends' estimate_seconds
/// assume, in the kernel's cells per second: the dispatcher routes on host
/// wall time, and the simulator *is* the host cost of those backends.
/// Dispatcher::calibrate corrects it per backend through cost_scale().
constexpr double kSimCellsPerSecond = 400e6;

/// The host backends' admission, as PimAligner's: a pair with a base outside
/// A/C/G/T (either case) resolves PairStatus::kInvalidInput on its own, so
/// the Dispatcher answers one input the same through every backend and the
/// pairs beside it still align.
bool acgt_pair(const PairInput& pair) {
  return dna::first_non_acgt(pair.a) == std::string_view::npos &&
         dna::first_non_acgt(pair.b) == std::string_view::npos;
}

PairOutput invalid_input() {
  PairOutput output;
  output.status = PairStatus::kInvalidInput;
  return output;
}

/// Fold one run's RunReport into an accumulated one: additive fields sum,
/// ratio fields combine as batch-weighted means, makespans add (submissions
/// to one backend execute sequentially on the modeled timeline).
void merge_run_report(RunReport& into, const RunReport& add) {
  const double b0 = static_cast<double>(into.batches);
  const double b1 = static_cast<double>(add.batches);
  if (b0 + b1 > 0) {
    auto weighted = [b0, b1](double x, double y) {
      return (x * b0 + y * b1) / (b0 + b1);
    };
    into.host_overhead_fraction =
        weighted(into.host_overhead_fraction, add.host_overhead_fraction);
    into.mean_pipeline_utilization = weighted(
        into.mean_pipeline_utilization, add.mean_pipeline_utilization);
    into.mean_mram_overhead =
        weighted(into.mean_mram_overhead, add.mean_mram_overhead);
    into.load_imbalance = weighted(into.load_imbalance, add.load_imbalance);
  }
  into.makespan_seconds += add.makespan_seconds;
  into.transfer_seconds += add.transfer_seconds;
  into.host_prep_seconds += add.host_prep_seconds;
  into.batches += add.batches;
  into.total_pairs += add.total_pairs;
  into.rejected_pairs += add.rejected_pairs;
  into.bytes_to_dpus += add.bytes_to_dpus;
  into.bytes_broadcast += add.bytes_broadcast;
  into.bytes_from_dpus += add.bytes_from_dpus;
  into.total_instructions += add.total_instructions;
  into.total_dma_bytes += add.total_dma_bytes;
}

}  // namespace

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kPim:
      return "pim";
    case BackendKind::kCpu:
      return "cpu";
    case BackendKind::kWfa:
      return "wfa";
    case BackendKind::kPimWfa:
      return "pimwfa";
  }
  return "?";
}

std::optional<BackendKind> parse_backend_kind(std::string_view name) {
  if (name == "pim") return BackendKind::kPim;
  if (name == "cpu") return BackendKind::kCpu;
  if (name == "wfa") return BackendKind::kWfa;
  if (name == "pimwfa") return BackendKind::kPimWfa;
  return std::nullopt;
}

// ---------------------------------------------------------------- PoolBackend

/// One submitted batch of a host backend: output slots, a remaining-pair
/// counter the jobs drain, and streaming accounting. Jobs hold a raw
/// pointer; the entry stays in pending_ until its wait() observes
/// remaining == 0, so the pointer outlives every job.
struct PoolBackend::Pending {
  std::span<const PairInput> pairs;
  std::vector<PairOutput> outputs;
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::uint64_t> cells{0};
  std::atomic<std::uint64_t> aligned{0};
  Stopwatch watch;
  double seconds = 0.0;  // written by the last job, mutex held
  bool done = false;     // mutex held
  /// Set (after done, outside the mutex) by the last job — the lock-free
  /// park predicate wait() hands to ThreadPool::park (a predicate must not
  /// take the backend mutex: submit() enqueues while holding it, and
  /// enqueue takes the pool mutex the predicate runs under).
  std::atomic<bool> finished{false};
  std::exception_ptr error;  // first failure, mutex held
};

PoolBackend::PoolBackend(ThreadPool* pool)
    : pool_(pool != nullptr ? pool : &global_pool()) {}

PoolBackend::~PoolBackend() {
  // Never destroy with jobs in flight (they reference *this): a missed
  // drain() is a usage bug, not something to limp through.
  PIMNW_CHECK_MSG(pending_.empty(),
                  "PoolBackend destroyed with submitted batches not yet "
                  "waited/drained");
}

AlignerBackend::Ticket PoolBackend::submit(std::span<const PairInput> pairs) {
  auto pending = std::make_unique<Pending>();
  Pending* p = pending.get();
  p->pairs = pairs;
  p->outputs.assign(pairs.size(), PairOutput{});
  p->remaining.store(pairs.size(), std::memory_order_relaxed);
  p->watch.reset();

  Ticket ticket;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ticket = next_ticket_++;
    if (pairs.empty()) {
      p->done = true;
    }
    pending_.emplace(ticket, std::move(pending));
  }
  // One job per pair: the shared deques interleave them with other
  // backends' jobs and with the PiM engine's DPU simulations, which is
  // what makes the dispatcher's backends genuinely concurrent.
  const char* label = backend_kind_name(kind());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    pool_->post([this, p, label, i] {
      try {
        PIMNW_TRACE_SPAN(std::string(label) + " pair");
        PairOutput output = align_one(p->pairs[i]);
        p->cells.fetch_add(output.cells, std::memory_order_relaxed);
        if (output.ok) p->aligned.fetch_add(1, std::memory_order_relaxed);
        p->outputs[i] = std::move(output);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!p->error) p->error = std::current_exception();
      }
      if (p->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // The waiter frees *p — and may destroy the whole backend — the
        // moment it observes done under mutex_: publish finished inside the
        // same critical section (so the waiter's lock acquisition orders it
        // before the free) and touch nothing of *this afterwards.
        ThreadPool* pool = pool_;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          p->seconds = p->watch.seconds();
          p->done = true;
          p->finished.store(true, std::memory_order_seq_cst);
        }
        pool->unpark_all();
      }
    });
  }
  return ticket;
}

std::vector<PairOutput> PoolBackend::wait(Ticket ticket) {
  Pending* p;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(ticket);
    PIMNW_CHECK_MSG(it != pending_.end(),
                    "PoolBackend::wait: unknown or already-waited ticket");
    p = it->second.get();
  }
  // Help the pool while there is work; when the queues run dry but this
  // ticket is still executing on some worker, park on the pool's
  // sleep/notify hook instead of timed-wait polling (the last job's
  // unpark_all — or any enqueue — wakes us).
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (p->done) break;
    }
    if (!pool_->help_one()) {
      pool_->park(
          [p] { return p->finished.load(std::memory_order_seq_cst); });
    }
  }
  std::unique_ptr<Pending> owned;
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(ticket);
    owned = std::move(it->second);
    pending_.erase(it);
    account(*owned);
    error = owned->error;
  }
  if (error) std::rethrow_exception(error);
  return std::move(owned->outputs);
}

void PoolBackend::account(const Pending& pending) {
  ++accum_.submissions;
  accum_.kind = kind();
  accum_.total_pairs += pending.pairs.size();
  accum_.aligned += pending.aligned.load(std::memory_order_relaxed);
  accum_.total_cells += pending.cells.load(std::memory_order_relaxed);
  accum_.measured_seconds += pending.seconds;
  accum_.cells_per_second =
      accum_.measured_seconds > 0
          ? static_cast<double>(accum_.total_cells) / accum_.measured_seconds
          : 0.0;
}

BackendReport PoolBackend::drain() {
  for (;;) {
    Ticket ticket;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.empty()) break;
      ticket = pending_.begin()->first;
    }
    (void)wait(ticket);  // rethrows the first failure of that ticket
  }
  std::lock_guard<std::mutex> lock(mutex_);
  BackendReport report = accum_;
  report.kind = kind();
  accum_ = BackendReport{};
  return report;
}

// ----------------------------------------------------------------- PimBackend

PimBackend::PimBackend(Config config)
    : config_(std::move(config)),
      kind_(&kernel_for(config_.aligner) == &wfa_kernel() ? BackendKind::kPimWfa
                                                          : BackendKind::kPim),
      aligner_(config_.aligner) {}

PimBackend::~PimBackend() {
  PIMNW_CHECK_MSG(queued_.empty(),
                  "PimBackend destroyed with submitted batches not yet "
                  "waited/drained");
}

BackendCapabilities PimBackend::capabilities() const {
  BackendCapabilities caps;
  caps.traceback = config_.aligner.align.traceback;
  caps.max_pair_length = kernel_for(config_.aligner).max_sequence_bases();
  caps.modeled_time = true;
  return caps;
}

double PimBackend::estimate_seconds(std::size_t len_a,
                                    std::size_t len_b) const {
  return kernel_for(config_.aligner)
             .estimate_cells(len_a, len_b, config_.aligner.align,
                             config_.expected_divergence) /
         kSimCellsPerSecond * cost_scale();
}

AlignerBackend::Ticket PimBackend::submit(std::span<const PairInput> pairs) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Ticket ticket = next_ticket_++;
  queued_.emplace(ticket, pairs);
  return ticket;
}

std::vector<PairOutput> PimBackend::wait(Ticket ticket) {
  std::span<const PairInput> pairs;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = queued_.find(ticket);
    PIMNW_CHECK_MSG(it != queued_.end(),
                    "PimBackend::wait: unknown or already-waited ticket");
    pairs = it->second;
    queued_.erase(it);
  }
  PIMNW_TRACE_SPAN("pim backend batch");
  Stopwatch watch;
  std::vector<PairOutput> outputs;
  const RunReport report = aligner_.align_pairs(pairs, &outputs);
  const double wall = watch.seconds();

  std::lock_guard<std::mutex> lock(mutex_);
  ++accum_.submissions;
  accum_.kind = kind();
  accum_.total_pairs += pairs.size();
  for (const PairOutput& output : outputs) {
    if (output.ok) ++accum_.aligned;
  }
  accum_.measured_seconds += wall;
  accum_.modeled_seconds += report.makespan_seconds;
  merge_run_report(accum_.pim, report);
  return outputs;
}

BackendReport PimBackend::drain() {
  for (;;) {
    Ticket ticket;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queued_.empty()) break;
      ticket = queued_.begin()->first;
    }
    (void)wait(ticket);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  BackendReport report = accum_;
  report.kind = kind();
  accum_ = BackendReport{};
  return report;
}

// ----------------------------------------------------------------- CpuBackend

CpuBackend::CpuBackend(Config config, ThreadPool* pool)
    : PoolBackend(pool), config_(config) {}

BackendCapabilities CpuBackend::capabilities() const {
  BackendCapabilities caps;
  caps.traceback = config_.options.traceback;
  caps.max_pair_length = 0;
  caps.modeled_time = false;
  return caps;
}

double CpuBackend::estimate_seconds(std::size_t len_a,
                                    std::size_t len_b) const {
  const std::uint64_t cells = pair_workload(
      len_a, len_b, static_cast<std::uint64_t>(config_.options.band_width));
  return static_cast<double>(cells) / config_.cells_per_second * cost_scale();
}

PairOutput CpuBackend::align_one(const PairInput& pair) const {
  if (!acgt_pair(pair)) return invalid_input();
  align::AlignResult result =
      baseline::ksw2_align(pair.a, pair.b, config_.scoring, config_.options);
  PairOutput output;
  output.ok = result.reached_end;
  output.status = output.ok ? PairStatus::kOk : PairStatus::kUnreachable;
  output.score = result.reached_end ? result.score : align::kNegInf;
  output.cigar = std::move(result.cigar);
  output.cells = result.cells;
  return output;
}

// ----------------------------------------------------------------- WfaBackend

WfaBackend::WfaBackend(Config config, ThreadPool* pool)
    : PoolBackend(pool), config_(config) {}

BackendCapabilities WfaBackend::capabilities() const {
  BackendCapabilities caps;
  caps.traceback = config_.traceback;
  caps.max_pair_length = 0;
  caps.modeled_time = false;
  return caps;
}

double WfaBackend::estimate_seconds(std::size_t len_a,
                                    std::size_t len_b) const {
  return wfa_estimate_cells(len_a, len_b, config_.scoring,
                            config_.expected_divergence, /*max_cost=*/0) /
         config_.cells_per_second * cost_scale();
}

PairOutput WfaBackend::align_one(const PairInput& pair) const {
  if (!acgt_pair(pair)) return invalid_input();
  PairOutput output;
  if (config_.traceback) {
    std::optional<align::AlignResult> result =
        align::wfa_align(pair.a, pair.b, config_.scoring, config_.options);
    if (result.has_value()) {
      output.ok = true;
      output.status = PairStatus::kOk;
      output.score = result->score;
      output.cigar = std::move(result->cigar);
      output.cells = result->cells;
    }
  } else {
    const std::optional<align::Score> score =
        align::wfa_score(pair.a, pair.b, config_.scoring, config_.options);
    if (score.has_value()) {
      output.ok = true;
      output.status = PairStatus::kOk;
      output.score = *score;
      // Score-only WFA does not report a cell count; charge the modeled
      // estimate so throughput stays comparable.
      output.cells = static_cast<std::uint64_t>(
          wfa_estimate_cells(pair.a.size(), pair.b.size(), config_.scoring,
                             config_.expected_divergence, /*max_cost=*/0));
    }
  }
  return output;
}

}  // namespace pimnw::core
