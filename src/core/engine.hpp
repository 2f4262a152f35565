// The host execution engine (ISSUE 2, DESIGN.md "Execution engine").
//
// The run loops of core/host.cpp and core/session.cpp slice their workload
// into rank-batches of 64 per-DPU plans; this engine executes those batches.
// Up to `batch_window` batches are in flight at once. A batch is built on a
// pool worker, then fans out into one job per non-empty DPU plan; jobs land
// in the workers' Chase–Lev deques and are executed — stolen, reordered,
// interleaved across batches — on per-worker scratch arenas (a private Dpu
// bank + reusable WRAM + KernelScratch). A sequenced commit stage on the
// calling thread then applies the modeled timeline strictly in batch order,
// so every score, CIGAR, cycle count, DMA byte and timeline figure is
// bit-identical for any worker count, any window and any steal order
// (engine_test pins this against the serial schedule: one worker, window 1).
//
// Modeled time is derived from the cost models (cycles, bytes) in commit
// order, never from host wall-clock; out-of-order execution changes only
// when the numbers become available, not what they are.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "core/dpu_cost.hpp"
#include "core/dpu_kernel.hpp"
#include "core/host.hpp"
#include "core/mram_layout.hpp"
#include "core/pim_kernel.hpp"
#include "core/stats.hpp"

namespace pimnw {
class ThreadPool;
}

namespace pimnw::core {

/// Decode metadata the host keeps per dispatched DPU, to interpret the
/// readback buffer.
struct LocalPairMeta {
  std::uint32_t global_id = 0;
  std::uint64_t cigar_rel = 0;  // cigar slot offset relative to result_off
  std::uint32_t cigar_cap = 0;
  std::uint32_t seq_a = 0;  // database indices (session mode; else unused)
  std::uint32_t seq_b = 0;
};

struct DpuPlan;

/// Streaming consumer of session-round results (DESIGN.md §13). The engine
/// calls consume() once per decoded plan, from whichever worker executed it,
/// so implementations must be thread-safe across plans. `outputs[p]` belongs
/// to `plan.meta[p]` (seq_a/seq_b carry the database indices).
class SessionSink {
 public:
  virtual ~SessionSink() = default;
  virtual void consume(const DpuPlan& plan,
                       std::span<const PairOutput> outputs) = 0;
};

/// The work of one DPU within a rank-batch: its serialized MRAM image plus
/// what the host needs to charge prep time and decode the readback.
struct DpuPlan {
  DpuBatchInput batch;
  MramImage image;
  std::vector<LocalPairMeta> meta;
  std::uint64_t prep_bases = 0;
  /// Session round (kFlagSession): compact 16-byte results, no CIGARs.
  bool session = false;
  /// Optional streaming consumer; results are still scattered into the
  /// decode_readback `out` vector when one is supplied.
  SessionSink* sink = nullptr;
};

/// One rank-batch of 64 per-DPU plans, built by a caller-supplied closure
/// (possibly on a pool worker, concurrently with other batches). Building is
/// pure CPU over caller-owned read-only input, so it is safe off the main
/// thread; the *modeled* prep time is charged at commit, in batch order.
struct PreparedBatch {
  std::vector<DpuPlan> plans;
  double imbalance = 1.0;
  /// Host prep seconds to charge on top of the per-plan base/pair costs.
  double extra_prep_seconds = 0.0;
  /// Banded DP cells of the batch (Σ pair_workload) — observability only
  /// (GCUPS in core/stats.hpp); never enters the modeled arithmetic.
  std::uint64_t total_workload = 0;
};

/// Sequence interner: dedups by (data pointer, length) so a read shared by
/// many pairs of the same DPU is packed and transferred once, while a prefix
/// view of a read stays a sequence of its own.
class SeqInterner {
 public:
  std::uint32_t intern(std::string_view s) {
    auto [it, inserted] = index_.try_emplace(
        std::pair(s.data(), s.size()),
        static_cast<std::uint32_t>(seqs_.size()));
    if (inserted) {
      seqs_.push_back(s);
      bases_ += s.size();
    }
    return it->second;
  }

  std::span<const std::string_view> seqs() const { return seqs_; }
  std::uint64_t bases() const { return bases_; }

 private:
  std::vector<std::string_view> seqs_;
  std::map<std::pair<const char*, std::size_t>, std::uint32_t> index_;
  std::uint64_t bases_ = 0;
};

/// Serialize a plan's batch and recover the decoding metadata.
void finalize_plan(DpuPlan& plan, const SeqInterner& interner,
                   const PimAlignerConfig& config);

/// Serialize a session round plan (DESIGN.md §13): compact pair table, score
/// -only results, sequence table resident at `db_mram_offset`. Sets
/// plan.session and fills meta with (global_id, seq_a, seq_b).
/// `scratch_stride` is the per-pool MRAM scratch stride the kernel needs for
/// any pair of the session's database (the caller computes it once at session
/// open from the two longest database sequences — valid because
/// PimKernel::pair_scratch_bytes is monotone in each length).
void finalize_session_plan(DpuPlan& plan, const PimKernel& kernel,
                           const AlignConfig& config, const PoolConfig& pools,
                           std::uint64_t db_mram_offset,
                           std::uint32_t db_nr_seqs,
                           std::uint64_t scratch_stride);

/// Decode one DPU's readback region into PairOutputs (indexed by global id).
/// Global ids are unique across a run, so concurrent decodes of different
/// plans write disjoint `out` slots.
void decode_readback(const DpuPlan& plan,
                     const std::vector<std::uint8_t>& readback,
                     std::vector<PairOutput>* out);

/// Executes rank-batches and accumulates the modeled timeline + RunReport.
/// See the file comment. Not reentrant; run() must be called from outside
/// the worker pool.
class ExecEngine {
 public:
  ExecEngine(const PimAlignerConfig& config, const HostCost& host_cost);
  ~ExecEngine();

  ExecEngine(const ExecEngine&) = delete;
  ExecEngine& operator=(const ExecEngine&) = delete;

  /// Record host pre-processing that happens once, before any batch (e.g.
  /// the database encode of a DbSession).
  void charge_prep(double seconds);

  /// Broadcast `bytes` to every DPU at `mram_offset` (a session's resident
  /// database) and charge the transfer, which delays every rank. The buffer
  /// is kept and lazily written into each worker arena's bank; the modeled
  /// cost is identical to writing all nr_dpus banks.
  void set_broadcast(std::span<const std::uint8_t> bytes,
                     std::uint64_t mram_offset);

  /// Execute `n_batches` batches. `build(b)` produces batch b's plans; it
  /// must be thread-safe (several batches are built at once on pool
  /// workers) and must return exactly upmem::kDpusPerRank plans.
  /// Results are decoded into `out` (indexed by global id; may be null).
  void run(std::size_t n_batches,
           const std::function<PreparedBatch(std::size_t)>& build,
           std::vector<PairOutput>* out);

  /// Drop every arena bank chunk below `resident_off` — the per-round
  /// scratch of a session — while keeping the resident database (and the
  /// arenas' broadcast bookkeeping) intact. Returns the number of chunks
  /// released across all banks.
  std::size_t release_scratch(std::uint64_t resident_off);

  /// Largest materialised bank footprint (bytes) across the banks this
  /// engine executes on — the session footprint-bound test's probe.
  std::uint64_t max_bank_footprint() const;

  RunReport finish();

  /// The statistics observer being fed: config.stats if the caller attached
  /// one, else an engine-owned collector (so tracing works without one).
  const StatsCollector& stats() const { return *stats_; }

 private:
  struct Arena;
  struct Slot;

  void commit(Slot& slot, std::vector<PairOutput>* out);
  void schedule(Slot& slot, std::size_t index,
                const std::function<PreparedBatch(std::size_t)>& build,
                std::vector<PairOutput>* out);
  void sweep_plans(Slot& slot, std::vector<PairOutput>* out);
  void exec_plan(Slot& slot, int dpu, std::vector<PairOutput>* out);
  void job_done(Slot& slot);
  void wait_for(Slot& slot);

  const PimAlignerConfig& config_;
  const PimKernel& kernel_;  // config_.kernel or nw_kernel(); never null
  const HostCost& host_cost_;
  ThreadPool* pool_;  // config_.workers or global_pool(); never null

  // Observability (read-only with respect to the modeled arithmetic).
  StatsCollector own_stats_;
  StatsCollector* stats_;  // config_.stats or &own_stats_; never null
  std::uint64_t pool_base_executed_ = 0;
  std::uint64_t pool_base_stolen_ = 0;
  std::uint64_t pool_base_injected_ = 0;

  // Modeled-timeline state (identical to the pre-engine BatchEngine).
  RunReport report_;
  std::vector<double> rank_free_;
  std::vector<double> rank_exec_;
  double prep_clock_ = 0.0;
  double makespan_ = 0.0;
  double imbalance_sum_ = 0.0;
  double util_sum_ = 0.0;
  double mram_sum_ = 0.0;
  int launches_ = 0;

  // Pipeline state.
  std::vector<std::unique_ptr<Arena>> arenas_;  // [worker_index + 1]
  std::vector<std::unique_ptr<Slot>> slots_;
  std::mutex mutex_;  // guards Slot::error
  std::vector<std::uint8_t> broadcast_bytes_;
  std::uint64_t broadcast_off_ = 0;
  std::uint64_t broadcast_version_ = 0;
};

}  // namespace pimnw::core
