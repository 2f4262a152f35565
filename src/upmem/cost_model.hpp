// DPU timing model.
//
// The simulator is functional (kernels really compute) but time comes from
// instruction/DMA *accounting* against the pipeline model of §2.1:
//
//  * The 14-deep pipeline issues at most one instruction per cycle, and a
//    given tasklet may issue only every kPipelineReentry (11) cycles. With A
//    active tasklets, a tasklet therefore issues one instruction every
//    max(11, A) cycles, and the DPU as a whole retires at most 1/cycle.
//  * A tasklet blocks for the duration of its MRAM DMA transfers
//    (setup + bytes/2 cycles); other tasklets keep the pipeline busy, but the
//    single DMA engine serialises all transfers of a DPU.
//
// Kernels are structured as P *pools* of T tasklets (paper §4.2.3). Within a
// pool, tasklets synchronise at anti-diagonal granularity; pools run
// independently. Accounting granularity mirrors that: each pool records a
// critical path (per-step max over its tasklets) plus totals, and the DPU
// launch time is the slowest pool's critical path — bounded below by the
// whole-DPU issue and DMA-engine limits:
//
//   cycles = max(  max_p(crit_instr_p) * max(11, A) + max_p(crit_dma_p),
//                  total_instr,            // pipeline issue bound
//                  total_dma_cycles )      // MRAM port bound
//
// Pipeline utilisation (reported in §5: 95–99%) = total_instr / cycles.
//
// Hardware-counter emulation (ISSUE 5, DESIGN.md §12 "Profiler"): every
// charge is additionally attributed to the kernel's *current phase*
// (set_phase) in per-phase counters that the timing arithmetic above never
// reads — summarize() and least_loaded_pool() are byte-for-byte unaffected,
// so attribution is a pure observer. DpuCostModel::profile() folds the
// counters into a DpuPhaseProfile whose rows sum *exactly* to
// Summary.cycles (the reconciliation invariant pinned by profile_test).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "upmem/arch.hpp"

namespace pimnw::upmem {

/// Cycles consumed by one MRAM<->WRAM DMA transfer of `bytes`.
std::uint64_t dma_cycles(std::uint64_t bytes);

/// Per-tasklet issue interval with `active_tasklets` runnable tasklets.
inline std::uint64_t issue_interval(int active_tasklets) {
  return static_cast<std::uint64_t>(
      active_tasklets > kPipelineReentry ? active_tasklets
                                         : kPipelineReentry);
}

/// Named kernel phases for cycle attribution (the emulated counters of the
/// UPMEM profiling story; DESIGN.md §12). The set mirrors the banded-NW
/// kernel's structure but is kernel-agnostic: a program tags each charge
/// with its current phase via PoolCost::set_phase.
enum class Phase : int {
  /// Boot, header parse, descriptor fetches, 2-bit sequence window refills
  /// (decode streaming), pair setup and result write-back.
  kSetup = 0,
  /// Anti-diagonal cell updates + the per-anti-diagonal pool barrier.
  kCompute,
  /// Band-shift decision (the master tasklet's window steering, §3.2).
  kBandShift,
  /// BT-to-MRAM streaming: nibble-packed BT rows and staged window origins.
  kBtDma,
  /// Backwards BT walk: row/lo cache fetches, walk ops, CIGAR run flushes.
  kTraceback,
  kCount
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

/// Short stable identifier ("setup", "compute", ...) used in JSON and traces.
const char* phase_name(Phase phase);

/// DMA size histogram: power-of-two buckets over the legal 8..2048 B
/// transfer range. Bucket i holds transfers of (2^(i+2), 2^(i+3)] bytes,
/// i.e. upper bounds 8, 16, 32, 64, 128, 256, 512, 1024, 2048.
inline constexpr int kDmaHistBuckets = 9;

int dma_hist_bucket(std::uint64_t bytes);

/// Upper bound in bytes of histogram bucket `bucket` (8 << bucket).
std::uint64_t dma_hist_bucket_bytes(int bucket);

/// What dominates a launch: the answer pimnw-prof exists to give.
enum class Bottleneck : int {
  kPipeline = 0,  // issue cycles dominate (the paper's 95–99% regime)
  kMram = 1,      // un-hidden DMA stalls dominate
  kReentry = 2,   // max(11, A) slack dominates (too few tasklets)
};

const char* bottleneck_name(Bottleneck b);

/// Accounting for one pool of tasklets.
class PoolCost {
 public:
  /// Set the phase subsequent charges are attributed to. Attribution is
  /// observational only: no timing output changes, whatever the call
  /// pattern (profile_test pins the reconciliation; engine_test the
  /// bit-identity).
  void set_phase(Phase phase) { phase_ = phase; }

  /// One barrier-delimited parallel step: each of the pool's tasklets
  /// executed the given instruction counts. Critical path takes the max.
  void step(std::initializer_list<std::uint64_t> per_tasklet_instr);
  void step(const std::vector<std::uint64_t>& per_tasklet_instr);

  /// Balanced parallel step: `total_instr` split across `tasklets`, the
  /// slowest executing ceil(total/tasklets). The common fast path — avoids
  /// materialising a vector per anti-diagonal.
  ///
  /// This and the two charges below take a `repeat` count: one call charges
  /// `repeat` identical steps, sections or transfers, and leaves every
  /// counter exactly as `repeat` single calls would (a kernel charges a
  /// pair's per-anti-diagonal work once).
  void balanced_step(std::uint64_t total_instr, int tasklets,
                     std::uint64_t repeat = 1);

  /// Master-tasklet-only (serial) section: the pool's other tasklets wait.
  void serial(std::uint64_t instr, std::uint64_t repeat = 1);

  /// A DMA transfer issued from this pool's critical path.
  void dma(std::uint64_t bytes, std::uint64_t repeat = 1);

  std::uint64_t critical_instr() const { return critical_instr_; }
  std::uint64_t total_instr() const { return total_instr_; }
  std::uint64_t critical_dma_cycles() const { return critical_dma_cycles_; }
  std::uint64_t dma_bytes() const { return dma_bytes_; }

  // --- emulated hardware counters (pure observers) ---
  std::uint64_t phase_instr(Phase phase) const {
    return phase_instr_[static_cast<std::size_t>(phase)];
  }
  std::uint64_t phase_dma_cycles(Phase phase) const {
    return phase_dma_cycles_[static_cast<std::size_t>(phase)];
  }
  std::uint64_t phase_dma_bytes(Phase phase) const {
    return phase_dma_bytes_[static_cast<std::size_t>(phase)];
  }
  /// Instructions executed by tasklet `t` of this pool (serial sections run
  /// on tasklet 0; balanced steps split floor/remainder over the tasklets).
  std::uint64_t tasklet_instr(int t) const {
    return tasklet_instr_[static_cast<std::size_t>(t)];
  }
  /// Transfers recorded in DMA-size histogram bucket `bucket`.
  std::uint64_t dma_hist(int bucket) const {
    return dma_hist_[static_cast<std::size_t>(bucket)];
  }

 private:
  std::uint64_t critical_instr_ = 0;
  std::uint64_t total_instr_ = 0;
  std::uint64_t critical_dma_cycles_ = 0;
  std::uint64_t dma_bytes_ = 0;

  // Emulated counters. Never read by summarize()/least_loaded_pool().
  Phase phase_ = Phase::kSetup;
  std::array<std::uint64_t, kPhaseCount> phase_instr_{};
  std::array<std::uint64_t, kPhaseCount> phase_dma_cycles_{};
  std::array<std::uint64_t, kPhaseCount> phase_dma_bytes_{};
  std::array<std::uint64_t, kMaxTasklets> tasklet_instr_{};
  std::array<std::uint64_t, kDmaHistBuckets> dma_hist_{};
};

/// Phase-attributed view of one DPU launch (DESIGN.md §12). Exact by
/// construction:
///
///   Σ_phase issue_cycles[ph] + Σ_phase dma_stall_cycles[ph]
///     + reentry_stall_cycles  ==  cycles  ==  Summary.cycles
///
/// where issue_cycles[ph] is the phase's retired instructions (the pipeline
/// retires at most one per cycle, so instructions *are* busy cycles),
/// dma_stall_cycles distributes the un-hidden DMA time
/// min(total_dma_cycles, cycles - instructions) over phases proportionally
/// to their DMA cycles (largest-remainder rounding, deterministic), and
/// reentry_stall_cycles is the residual max(11, A) issue slack.
struct DpuPhaseProfile {
  std::uint64_t cycles = 0;  // == Summary.cycles
  std::array<std::uint64_t, kPhaseCount> issue_cycles{};
  std::array<std::uint64_t, kPhaseCount> dma_stall_cycles{};
  std::array<std::uint64_t, kPhaseCount> dma_bytes{};
  std::uint64_t reentry_stall_cycles = 0;
  /// DMA-engine serialisation across pools: Σ_p dma_p − max_p dma_p, the
  /// cycles during which more than one pool wanted the single MRAM port.
  std::uint64_t mram_contention_cycles = 0;
  /// Instructions per hardware tasklet (pool p, tasklet t → index p·T + t).
  std::array<std::uint64_t, kMaxTasklets> tasklet_instr{};
  int active_tasklets = 0;
  std::array<std::uint64_t, kDmaHistBuckets> dma_hist{};
  Bottleneck bottleneck = Bottleneck::kPipeline;

  std::uint64_t phase_cycles(Phase phase) const {
    const auto i = static_cast<std::size_t>(phase);
    return issue_cycles[i] + dma_stall_cycles[i];
  }
  std::uint64_t total_issue_cycles() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : issue_cycles) sum += c;
    return sum;
  }
  std::uint64_t total_dma_stall_cycles() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : dma_stall_cycles) sum += c;
    return sum;
  }
  /// Σ of every attributed row — equals `cycles` (the invariant).
  std::uint64_t attributed_cycles() const {
    return total_issue_cycles() + total_dma_stall_cycles() +
           reentry_stall_cycles;
  }
  /// 1 − pipeline utilisation, as attributed stall cycles.
  double stall_fraction() const {
    return cycles > 0 ? static_cast<double>(cycles - total_issue_cycles()) /
                            static_cast<double>(cycles)
                      : 0.0;
  }

  /// Merge another launch's profile into this one (aggregation across DPUs
  /// and launches; `cycles` and counters add, the verdict is recomputed
  /// from the merged totals).
  void merge(const DpuPhaseProfile& other);
};

/// Classify what dominates from the three attributed components (issue vs
/// un-hidden DMA vs re-entry slack). Ties resolve in that order.
Bottleneck classify_bottleneck(std::uint64_t issue_cycles,
                               std::uint64_t dma_stall_cycles,
                               std::uint64_t reentry_stall_cycles);

/// Whole-DPU accounting for one launch.
class DpuCostModel {
 public:
  /// `pools` concurrent pools of `tasklets_per_pool` tasklets each.
  DpuCostModel(int pools, int tasklets_per_pool);

  PoolCost& pool(int p);
  const PoolCost& pool(int p) const;
  int pools() const { return static_cast<int>(pool_costs_.size()); }
  int tasklets_per_pool() const { return tasklets_per_pool_; }
  int active_tasklets() const {
    return pools() * tasklets_per_pool_;
  }

  /// Index of the pool with the smallest committed critical path — the pool
  /// that will grab the next work item from the DPU's shared queue. This is
  /// how the kernel reproduces the dynamic pool scheduling of §4.2.3.
  int least_loaded_pool() const;

  struct Summary {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t dma_cycles_total = 0;
    std::uint64_t dma_bytes = 0;
    double pipeline_utilization = 0.0;  // instructions / cycles
    /// Fraction of the launch spent on MRAM<->WRAM transfers beyond what the
    /// pipeline hides (paper §5: 1–5%).
    double mram_overhead = 0.0;
    double seconds = 0.0;  // cycles / kDpuFrequencyHz
  };

  Summary summarize() const;

  /// Phase-attributed view of the same launch. Reads only the emulated
  /// counters plus summarize(); never mutates, so calling it (or not)
  /// cannot change any modeled number.
  DpuPhaseProfile profile() const;

 private:
  int tasklets_per_pool_;
  std::vector<PoolCost> pool_costs_;
};

}  // namespace pimnw::upmem
