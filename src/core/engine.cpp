#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "align/result.hpp"
#include "upmem/rank.hpp"
#include "upmem/system.hpp"
#include "util/check.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pimnw::core {

namespace {

// The modeled device's Prometheus series (DESIGN.md §17): launches, DPU
// cycles, host<->DPU transfer volume, broadcasts and pipeline occupancy. The
// engine is their only writer, charging them at the per-commit (and
// per-broadcast) accumulation sites, never from finish() totals — finish()
// can run once per flush and would double-count. Pure observers.
struct EngineSeries {
  metrics::Counter& launches;
  metrics::Counter& dpu_cycles;
  metrics::Counter& active_dpus;
  metrics::Counter& bytes_to_dpus;
  metrics::Counter& bytes_from_dpus;
  metrics::Counter& dpu_dma_bytes;
  metrics::Counter& broadcasts;
  metrics::Counter& broadcast_bytes;
  metrics::Gauge& slots_in_flight;
};

EngineSeries& engine_series() {
  auto& reg = metrics::MetricsRegistry::global();
  static EngineSeries series{
      reg.counter("pimnw_engine_launches_total",
                  "Rank launches committed on the modeled device"),
      reg.counter("pimnw_engine_dpu_cycles_total",
                  "Modeled DPU cycles summed over all launched DPUs"),
      reg.counter("pimnw_engine_active_dpus_total",
                  "DPUs that ran at least one pair, summed over launches"),
      reg.counter("pimnw_engine_bytes_to_dpus_total",
                  "Host->DPU bytes (batch images + broadcasts)"),
      reg.counter("pimnw_engine_bytes_from_dpus_total",
                  "DPU->host readback bytes"),
      reg.counter("pimnw_engine_dpu_dma_bytes_total",
                  "Modeled MRAM<->WRAM DMA bytes inside the DPUs"),
      reg.counter("pimnw_upmem_broadcasts_total",
                  "Broadcast transfers to every bank"),
      reg.counter("pimnw_upmem_broadcast_bytes_total",
                  "Bytes moved by broadcast transfers"),
      reg.gauge("pimnw_engine_slots_in_flight",
                "Pipelined batch slots scheduled but not yet committed"),
  };
  return series;
}

}  // namespace

void finalize_plan(DpuPlan& plan, const SeqInterner& interner,
                   const PimAlignerConfig& config) {
  const SeqPool pool = SeqPool::build(interner.seqs());
  plan.image = build_mram_image(plan.batch, pool, kernel_for(config),
                                config.align, config.pool);
  plan.prep_bases = interner.bases();

  BatchHeader header;
  std::memcpy(&header, plan.image.bytes.data(), sizeof(header));
  plan.meta.reserve(plan.batch.pairs.size());
  for (std::size_t p = 0; p < plan.batch.pairs.size(); ++p) {
    PairEntry entry;
    std::memcpy(&entry,
                plan.image.bytes.data() + header.pair_table_off +
                    p * sizeof(PairEntry),
                sizeof(PairEntry));
    plan.meta.push_back({entry.global_id, entry.cigar_off - header.result_off,
                         entry.cigar_cap});
  }
}

void finalize_session_plan(DpuPlan& plan, const PimKernel& kernel,
                           const AlignConfig& config, const PoolConfig& pools,
                           std::uint64_t db_mram_offset,
                           std::uint32_t db_nr_seqs,
                           std::uint64_t scratch_stride) {
  plan.session = true;
  plan.image =
      build_session_round_image(plan.batch, kernel, config, pools,
                                db_mram_offset, db_nr_seqs, scratch_stride);
  plan.prep_bases = 0;  // the database was packed once, at session open
  plan.meta.reserve(plan.batch.pairs.size());
  for (const DpuBatchInput::Pair& pr : plan.batch.pairs) {
    LocalPairMeta meta{};
    meta.global_id = pr.global_id;
    meta.seq_a = pr.seq_a;
    meta.seq_b = pr.seq_b;
    plan.meta.push_back(meta);
  }
}

void decode_readback(const DpuPlan& plan,
                     const std::vector<std::uint8_t>& readback,
                     std::vector<PairOutput>* out) {
  if (plan.session) {
    // Compact score-only records; deliver the whole plan to the sink in one
    // call so streaming reducers lock once per plan, not once per pair.
    std::vector<PairOutput> decoded(plan.meta.size());
    for (std::size_t p = 0; p < plan.meta.size(); ++p) {
      SessionResult result;
      std::memcpy(&result, readback.data() + p * sizeof(SessionResult),
                  sizeof(SessionResult));
      PairOutput& output = decoded[p];
      output.ok = result.status == kStatusOk;
      output.status =
          output.ok ? PairStatus::kOk : PairStatus::kUnreachable;
      output.score = output.ok ? result.score : align::kNegInf;
      output.dpu_pool_cycles =
          (static_cast<std::uint64_t>(result.pool_cycles_hi) << 32) |
          result.pool_cycles_lo;
      output.dpu_dma_bytes = 0;  // not reported in session mode
    }
    if (plan.sink != nullptr) plan.sink->consume(plan, decoded);
    if (out != nullptr) {
      for (std::size_t p = 0; p < plan.meta.size(); ++p) {
        (*out)[plan.meta[p].global_id] = std::move(decoded[p]);
      }
    }
    return;
  }
  for (std::size_t p = 0; p < plan.meta.size(); ++p) {
    PairResult result;
    std::memcpy(&result, readback.data() + p * sizeof(PairResult),
                sizeof(PairResult));
    PairOutput output;
    output.ok = result.status == kStatusOk;
    output.status = output.ok ? PairStatus::kOk : PairStatus::kUnreachable;
    output.score = output.ok ? result.score : align::kNegInf;
    output.dpu_pool_cycles =
        (static_cast<std::uint64_t>(result.pool_cycles_hi) << 32) |
        result.pool_cycles_lo;
    output.dpu_dma_bytes = result.dma_bytes;
    if (output.ok && result.cigar_runs > 0) {
      PIMNW_CHECK_MSG(result.cigar_runs <= plan.meta[p].cigar_cap,
                      "DPU reported more cigar runs than its slot holds: pair="
                          << plan.meta[p].global_id
                          << " runs=" << result.cigar_runs
                          << " cap=" << plan.meta[p].cigar_cap);
      std::vector<std::uint32_t> runs(result.cigar_runs);
      std::memcpy(runs.data(), readback.data() + plan.meta[p].cigar_rel,
                  result.cigar_runs * sizeof(std::uint32_t));
      output.cigar = decode_cigar(runs);
    }
    if (out != nullptr) {
      (*out)[plan.meta[p].global_id] = std::move(output);
    }
  }
}

/// Per-worker scratch arena: a private simulated DPU (its bank is written
/// with whichever plan's image the worker executes next — safe because the
/// kernel never reads bank bytes it did not write this launch, apart from
/// the broadcast region), a reusable WRAM scratchpad (reset() restores the
/// fresh-launch state) and the kernel's host-side workspace
/// (PimKernel::make_workspace; may be null for kernels that keep no host
/// scratch).
struct ExecEngine::Arena {
  upmem::Dpu dpu;
  upmem::Wram wram;
  std::unique_ptr<KernelWorkspace> workspace;
  std::vector<std::uint8_t> readback;
  std::uint64_t broadcast_seen = 0;
};

/// One in-flight rank-batch. Its non-empty plans form a data-parallel DPU
/// sweep (DESIGN.md §15): `active[0..n_active)` lists the DPU indices and
/// `cursor` is the shared claim counter the sweepers drain, OpenMP-style —
/// one simulated DPU at a time per host worker slot. `jobs_left` counts the
/// build job (as a sentinel so the slot cannot look done while sweepers are
/// still being posted) plus one per sweeper task; a slot therefore only
/// reads done == true once every task that references it has finished, so
/// the ring can reuse the slot for a later batch without racing a stale
/// sweeper. `done` is an atomic so the waiter (and the ThreadPool park
/// predicate, which must not take locks) can read it without the engine
/// mutex; `error` stays guarded by the engine mutex.
struct ExecEngine::Slot {
  PreparedBatch prepared;
  std::array<upmem::DpuCostModel::Summary, upmem::kDpusPerRank> summaries;
  std::array<upmem::DpuPhaseProfile, upmem::kDpusPerRank> profiles;
  std::array<bool, upmem::kDpusPerRank> ran{};
  std::array<int, upmem::kDpusPerRank> active{};
  int n_active = 0;
  std::atomic<int> cursor{0};
  std::size_t index = 0;  // batch number (trace span labels)
  std::atomic<int> jobs_left{0};
  std::atomic<bool> done{true};
  std::exception_ptr error;
};

ExecEngine::ExecEngine(const PimAlignerConfig& config,
                       const HostCost& host_cost)
    : config_(config),
      kernel_(kernel_for(config)),
      host_cost_(host_cost),
      pool_(config.workers != nullptr ? config.workers : &global_pool()),
      stats_(config.stats != nullptr ? config.stats : &own_stats_),
      rank_free_(static_cast<std::size_t>(config.nr_ranks), 0.0),
      rank_exec_(static_cast<std::size_t>(config.nr_ranks), 0.0) {
  const ThreadPool::Stats baseline = pool_->stats();
  pool_base_executed_ = baseline.executed;
  pool_base_stolen_ = baseline.stolen;
  pool_base_injected_ = baseline.injected;
  stats_->set_params(params_json(config_));
  // Arena 0 serves outside threads (the committing caller when it helps
  // execute jobs); arenas 1..size serve the pool workers.
  arenas_.reserve(pool_->size() + 1);
  for (std::size_t i = 0; i < pool_->size() + 1; ++i) {
    arenas_.push_back(std::make_unique<Arena>());
    arenas_.back()->workspace = kernel_.make_workspace();
  }
}

ExecEngine::~ExecEngine() = default;

void ExecEngine::charge_prep(double seconds) {
  prep_clock_ += seconds;
  report_.host_prep_seconds += seconds;
}

void ExecEngine::set_broadcast(std::span<const std::uint8_t> bytes,
                               std::uint64_t mram_offset) {
  // One host-side copy instead of nr_dpus bank writes; each worker arena
  // installs it lazily before its first job. The modeled cost is still a
  // write of every bank (upmem::broadcast_stats).
  broadcast_bytes_.assign(bytes.begin(), bytes.end());
  broadcast_off_ = mram_offset;
  ++broadcast_version_;
  const upmem::TransferStats stats = upmem::broadcast_stats(
      bytes.size(), config_.nr_ranks * upmem::kDpusPerRank);
  report_.bytes_to_dpus += stats.bytes;
  report_.bytes_broadcast += stats.bytes;
  report_.transfer_seconds += stats.seconds;
  EngineSeries& series = engine_series();
  series.bytes_to_dpus.add(stats.bytes);
  series.broadcasts.add(1);
  series.broadcast_bytes.add(stats.bytes);
  for (double& t : rank_free_) t = std::max(t, stats.seconds);
  makespan_ = std::max(makespan_, stats.seconds);
  stats_->on_broadcast(stats.seconds, stats.bytes, config_.nr_ranks);
}

std::size_t ExecEngine::release_scratch(std::uint64_t resident_off) {
  // The broadcast chunks live at/above resident_off, so each arena's
  // broadcast_seen bookkeeping stays valid after the release.
  std::size_t released = 0;
  for (const std::unique_ptr<Arena>& arena : arenas_) {
    released += arena->dpu.mram().release_below(resident_off);
  }
  return released;
}

std::uint64_t ExecEngine::max_bank_footprint() const {
  std::uint64_t worst = 0;
  for (const std::unique_ptr<Arena>& arena : arenas_) {
    worst = std::max(worst, arena->dpu.mram().footprint());
  }
  return worst;
}

void ExecEngine::run(std::size_t n_batches,
                     const std::function<PreparedBatch(std::size_t)>& build,
                     std::vector<PairOutput>* out) {
  if (n_batches == 0) return;

  const std::size_t window =
      std::min(std::max<std::size_t>(1, config_.batch_window), n_batches);
  slots_.clear();
  for (std::size_t i = 0; i < window; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }

  std::size_t scheduled = 0;
  for (std::size_t b = 0; b < n_batches; ++b) {
    for (; scheduled < n_batches && scheduled < b + window; ++scheduled) {
      schedule(*slots_[scheduled % window], scheduled, build, out);
    }
    Slot& slot = *slots_[b % window];
    {
      PIMNW_TRACE_SPAN("wait b" + std::to_string(b));
      wait_for(slot);
    }
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      error = slot.error;
    }
    if (error) {
      // Drain every other in-flight slot before unwinding: their jobs still
      // reference slot state and the build closure.
      for (std::size_t i = b + 1; i < scheduled; ++i) {
        wait_for(*slots_[i % window]);
      }
      // Slots b..scheduled-1 will never commit; settle the occupancy gauge
      // so an aborted run does not leave it pinned high.
      engine_series().slots_in_flight.add(
          -static_cast<double>(scheduled - b));
      std::rethrow_exception(error);
    }
    commit(slot, out);
  }
}

void ExecEngine::schedule(
    Slot& slot, std::size_t index,
    const std::function<PreparedBatch(std::size_t)>& build,
    std::vector<PairOutput>* out) {
  engine_series().slots_in_flight.add(1.0);
  slot.prepared = PreparedBatch{};
  slot.ran.fill(false);
  slot.index = index;
  slot.n_active = 0;
  slot.cursor.store(0, std::memory_order_relaxed);
  slot.jobs_left.store(1, std::memory_order_relaxed);  // the build sentinel
  slot.done.store(false, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slot.error = nullptr;
  }
  pool_->post([this, &slot, &build, index, out] {
    try {
      {
        PIMNW_TRACE_SPAN("build b" + std::to_string(index));
        slot.prepared = build(index);
      }
      PIMNW_CHECK_MSG(slot.prepared.plans.size() ==
                          static_cast<std::size_t>(upmem::kDpusPerRank),
                      "a PreparedBatch must carry one plan per DPU: batch="
                          << index << " plans=" << slot.prepared.plans.size());
      for (int d = 0; d < upmem::kDpusPerRank; ++d) {
        if (slot.prepared.plans[static_cast<std::size_t>(d)]
                .batch.pairs.empty()) {
          continue;
        }
        slot.active[static_cast<std::size_t>(slot.n_active++)] = d;
      }
      // Data-parallel DPU sweep: one sweeper task per host worker slot (at
      // most one per DPU); each drains the shared claim cursor. The build
      // worker joins its own rank's sweep below — the nested-parallelism
      // composition the ThreadPool's helping/parking waits make safe.
      const int sweepers = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(slot.n_active), pool_->size()));
      slot.jobs_left.fetch_add(sweepers, std::memory_order_seq_cst);
      for (int s = 0; s < sweepers; ++s) {
        pool_->post([this, &slot, out] {
          sweep_plans(slot, out);
          job_done(slot);
        });
      }
      sweep_plans(slot, out);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!slot.error) slot.error = std::current_exception();
    }
    job_done(slot);
  });
}

/// Claim-and-execute loop of one sweeper: takes DPUs off the slot's shared
/// cursor until the sweep is drained. Per-DPU failures are latched into
/// slot.error without aborting the remaining DPUs (matching the previous
/// one-task-per-DPU behaviour); summaries/profiles land in per-DPU slots so
/// the commit stage reads them in fixed order no matter which sweeper ran
/// which DPU, or in what order they finished.
void ExecEngine::sweep_plans(Slot& slot, std::vector<PairOutput>* out) {
  for (;;) {
    const int k = slot.cursor.fetch_add(1, std::memory_order_seq_cst);
    if (k >= slot.n_active) return;
    const int d = slot.active[static_cast<std::size_t>(k)];
    try {
      exec_plan(slot, d, out);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!slot.error) slot.error = std::current_exception();
    }
  }
}

void ExecEngine::exec_plan(Slot& slot, int dpu, std::vector<PairOutput>* out) {
  PIMNW_TRACE_SPAN("exec b" + std::to_string(slot.index) + " d" +
                   std::to_string(dpu));
  DpuPlan& plan = slot.prepared.plans[static_cast<std::size_t>(dpu)];
  const std::size_t ai = static_cast<std::size_t>(pool_->worker_index() + 1);
  Arena& arena = *arenas_[ai];
  if (arena.broadcast_seen != broadcast_version_) {
    arena.dpu.mram().write(broadcast_off_, broadcast_bytes_);
    arena.broadcast_seen = broadcast_version_;
  }
  arena.dpu.mram().write(0, plan.image.bytes);
  const std::unique_ptr<upmem::DpuProgram> program =
      kernel_.make_program(config_, arena.workspace.get());
  slot.summaries[static_cast<std::size_t>(dpu)] = arena.dpu.launch(
      *program, config_.pool.pools, config_.pool.tasklets_per_pool,
      arena.wram);
  slot.profiles[static_cast<std::size_t>(dpu)] = arena.dpu.last_profile();
  slot.ran[static_cast<std::size_t>(dpu)] = true;
  arena.readback.resize(plan.image.readback_bytes);
  arena.dpu.mram().read(plan.image.result_off, arena.readback);
  decode_readback(plan, arena.readback, out);
}

void ExecEngine::job_done(Slot& slot) {
  if (slot.jobs_left.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    // The waiter may destroy the engine (and the slot) the instant it
    // observes done == true, so nothing of *this may be touched after the
    // store — snapshot the pool pointer first (the pool, global or
    // caller-owned, outlives the engine).
    ThreadPool* pool = pool_;
    slot.done.store(true, std::memory_order_seq_cst);
    pool->unpark_all();
  }
}

void ExecEngine::wait_for(Slot& slot) {
  // Help run jobs (ours or anyone's) while there are any; when the queues
  // run dry but the slot is still executing on some worker, park on the
  // pool's sleep/notify hook — job_done's unpark_all (or any enqueue) wakes
  // us the moment there is something to do. No timed-wait polling: in the
  // single-pair trickle regime a service creates, the old 1 ms fallback put
  // a floor under every request's latency.
  while (!slot.done.load(std::memory_order_seq_cst)) {
    if (!pool_->help_one()) {
      pool_->park(
          [&slot] { return slot.done.load(std::memory_order_seq_cst); });
    }
  }
}

/// The commit stage: pure arithmetic over numbers produced by the exec jobs,
/// applied strictly in batch order with the same accumulation order as the
/// pre-engine serial loop — so every double in the RunReport is bit-identical
/// regardless of execution interleaving. (The PairOutputs were already
/// decoded by the exec jobs; global ids are unique, so those writes are
/// disjoint and order-free.)
void ExecEngine::commit(Slot& slot, std::vector<PairOutput>* out) {
  (void)out;
  PIMNW_TRACE_SPAN("commit b" + std::to_string(slot.index));
  const std::vector<DpuPlan>& plans = slot.prepared.plans;
  double prep_seconds = slot.prepared.extra_prep_seconds;
  std::uint64_t batch_pairs = 0;
  std::uint64_t in_bytes = 0;
  for (int d = 0; d < upmem::kDpusPerRank; ++d) {
    const DpuPlan& plan = plans[static_cast<std::size_t>(d)];
    if (plan.batch.pairs.empty()) continue;
    in_bytes += plan.image.bytes.size();
    prep_seconds +=
        static_cast<double>(plan.prep_bases) * host_cost_.per_base_seconds +
        static_cast<double>(plan.batch.pairs.size()) *
            host_cost_.per_pair_seconds;
    batch_pairs += plan.batch.pairs.size();
  }
  prep_clock_ += prep_seconds;
  report_.host_prep_seconds += prep_seconds;
  imbalance_sum_ += slot.prepared.imbalance;

  const int r = static_cast<int>(
      std::min_element(rank_free_.begin(), rank_free_.end()) -
      rank_free_.begin());

  const upmem::TransferStats in_stats = upmem::transfer_stats(in_bytes);
  report_.bytes_to_dpus += in_stats.bytes;
  report_.transfer_seconds += in_stats.seconds;

  const upmem::LaunchStats launch_stats =
      upmem::aggregate_launch(slot.summaries, slot.ran);
  util_sum_ += launch_stats.mean_pipeline_utilization;
  mram_sum_ += launch_stats.mean_mram_overhead;
  ++launches_;
  report_.total_instructions += launch_stats.total_instructions;
  report_.total_dma_bytes += launch_stats.total_dma_bytes;

  std::uint64_t out_bytes = 0;
  for (int d = 0; d < upmem::kDpusPerRank; ++d) {
    const DpuPlan& plan = plans[static_cast<std::size_t>(d)];
    if (plan.batch.pairs.empty()) continue;
    out_bytes += plan.image.readback_bytes;
  }
  const upmem::TransferStats out_stats = upmem::transfer_stats(out_bytes);
  report_.bytes_from_dpus += out_stats.bytes;
  report_.transfer_seconds += out_stats.seconds;

  // Timeline: the batch waits for its prep (reader thread) and its rank;
  // transfers serialise with that rank's execution (§2.1).
  const double start =
      std::max(prep_clock_, rank_free_[static_cast<std::size_t>(r)]);
  const double end = start + in_stats.seconds +
                     host_cost_.per_launch_seconds + launch_stats.seconds +
                     out_stats.seconds;
  rank_free_[static_cast<std::size_t>(r)] = end;
  rank_exec_[static_cast<std::size_t>(r)] += launch_stats.seconds;
  makespan_ = std::max(makespan_, end);
  std::uint64_t dpu_cycles = 0;
  for (int d = 0; d < upmem::kDpusPerRank; ++d) {
    if (slot.ran[static_cast<std::size_t>(d)]) {
      dpu_cycles += slot.summaries[static_cast<std::size_t>(d)].cycles;
    }
  }
  EngineSeries& series = engine_series();
  series.launches.add(1);
  series.dpu_cycles.add(dpu_cycles);
  series.active_dpus.add(static_cast<std::uint64_t>(launch_stats.active_dpus));
  series.bytes_to_dpus.add(in_stats.bytes);
  series.bytes_from_dpus.add(out_stats.bytes);
  series.dpu_dma_bytes.add(launch_stats.total_dma_bytes);
  series.slots_in_flight.add(-1.0);
  stats_->add_cells(slot.prepared.total_workload);
  stats_->on_launch(report_.batches, r, start, in_stats.seconds,
                    host_cost_.per_launch_seconds, out_stats.seconds,
                    slot.summaries, slot.ran, launch_stats, &slot.profiles);
  ++report_.batches;
  report_.total_pairs += batch_pairs;
}

RunReport ExecEngine::finish() {
  report_.makespan_seconds = makespan_;
  const double busiest_exec =
      *std::max_element(rank_exec_.begin(), rank_exec_.end());
  report_.host_overhead_fraction =
      makespan_ > 0 ? (makespan_ - busiest_exec) / makespan_ : 0.0;
  if (report_.batches > 0) {
    report_.load_imbalance =
        imbalance_sum_ / static_cast<double>(report_.batches);
  }
  if (launches_ > 0) {
    report_.mean_pipeline_utilization = util_sum_ / launches_;
    report_.mean_mram_overhead = mram_sum_ / launches_;
  }
  const ThreadPool::Stats pool_now = pool_->stats();
  stats_->note_pool(pool_now.executed - pool_base_executed_,
                    pool_now.stolen - pool_base_stolen_,
                    pool_now.injected - pool_base_injected_);
  pool_base_executed_ = pool_now.executed;
  pool_base_stolen_ = pool_now.stolen;
  pool_base_injected_ = pool_now.injected;
  return report_;
}

}  // namespace pimnw::core
