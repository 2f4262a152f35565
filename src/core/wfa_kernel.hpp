// PiM-WFA: the gap-affine wavefront kernel (DESIGN.md §16) — the second
// PimKernel registrant, algorithmically unrelated to banded NW.
//
// Structure on the DPU:
//  * Both 2-bit-packed sequences stay WRAM-resident for the whole pair
//    (kWfaMaxSeqBases caps each side at one 2048 B buffer per pool).
//  * Wavefronts (M/I/D furthest-reaching offsets per diagonal) live in the
//    per-pool MRAM scratch area as fixed-stride slots, one slot per cost
//    step: traceback keeps every step for the backtrace walk; score-only
//    recycles a `depth` (= max penalty + 1) slot ring.
//  * Each cost step streams its source rows MRAM→WRAM and its three output
//    rows WRAM→MRAM in kDmaMaxBytes-bounded chunks; the recurrence itself
//    runs on WRAM chunk buffers, split across the pool's tasklets.
//  * The backtrace walks the retained slots with small 8-byte probes and
//    hands the CIGAR to the batch protocol shared with NW
//    (core/kernel_io.hpp), which streams it to MRAM.
//
// The recurrence, tie-breaking, bounds arithmetic and backtrace source
// disambiguation are identical to align::wfa_align — tests assert
// bit-identical scores and CIGARs, including the nullopt ↔ kStatusUnreachable
// correspondence under AlignConfig::wfa_max_cost. Timing comes from the
// WfaKernelCost budgets charged to the same pool cost model as NW.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "align/scoring.hpp"
#include "core/params.hpp"
#include "core/pim_kernel.hpp"
#include "upmem/dpu.hpp"

namespace pimnw::core {

/// Hard per-side length cap: one fully-resident packed sequence buffer per
/// pool is 2048 bytes = 8192 bases. Longer pairs are rejected by
/// pair_admissible (PairStatus::kOversized), the same contract as an NW pair
/// whose lone-pair MRAM footprint exceeds the bank.
inline constexpr std::uint64_t kWfaMaxSeqBases = 8192;

/// The score-model-to-cost-model conversion (Eizenga & Paten 2022), shared
/// by the planner and the DPU program so their geometry always agrees:
///   x = 2(a+b), open = 2o + (2e+a), ext = 2e + a.
/// `depth` = max penalty + 1 is the score-only wavefront ring size.
struct WfaPenalties {
  std::int64_t x;
  std::int64_t open;
  std::int64_t ext;
  std::uint64_t depth;
};

/// Derive the WFA penalties; throws CheckError when the scoring does not
/// convert to positive penalties (same contract as align::wfa_align).
WfaPenalties wfa_penalties(const align::Scoring& scoring);

/// Monotone upper bound on the optimal alignment cost of a (len_a, len_b)
/// pair: the trivial alignment of min(m,n) mismatch columns plus one gap,
/// over-charged to open + d·ext so the bound is non-decreasing in each
/// length (the exact trivial cost dips by open−x−ext when a gap closes,
/// which would break the pair_scratch_bytes monotonicity contract).
std::uint64_t wfa_worst_cost(std::uint64_t len_a, std::uint64_t len_b,
                             const align::Scoring& scoring);

/// The per-pair cost budget that sizes the MRAM slot geometry:
/// min(config.wfa_max_cost, wfa_worst_cost), with wfa_max_cost == 0 meaning
/// unbounded (the worst-cost bound alone guarantees termination).
std::uint64_t wfa_cost_cap(std::uint64_t len_a, std::uint64_t len_b,
                           const AlignConfig& config);

/// Wavefront cells a (len_a, len_b) pair is expected to cost, for routing:
/// the alignment cost s ≈ divergence·(m+n)·x/2 (clamped to `max_cost` when
/// it is not 0) drives O(s·w) work, never less than one pass over the
/// sequences. One formula for the DPU kernel and the host WfaBackend.
double wfa_estimate_cells(std::uint64_t len_a, std::uint64_t len_b,
                          const align::Scoring& scoring,
                          double expected_divergence, std::uint64_t max_cost);

/// The DPU program: runs the exact WFA recurrence against the simulated
/// MRAM/WRAM/cost-model machinery. `wfa_max_cost` is carried host-side (it
/// is planning state, not batch state — the BatchHeader stays byte-identical
/// to NW batches).
class WfaDpuProgram final : public upmem::DpuProgram {
 public:
  WfaDpuProgram(PoolConfig pool_config, KernelVariant variant,
                std::uint64_t wfa_max_cost);

  void run(upmem::DpuContext& ctx) override;

 private:
  PoolConfig pool_config_;
  KernelVariant variant_;
  std::uint64_t wfa_max_cost_;
};

/// PimKernel registrant for PiM-WFA (reach it via wfa_kernel() or
/// find_kernel("wfa")).
class WfaKernel final : public PimKernel {
 public:
  const char* name() const override { return "wfa"; }
  const char* description() const override;

  std::uint32_t batch_flags(const AlignConfig& config) const override;
  std::uint64_t pair_scratch_bytes(std::uint64_t len_a, std::uint64_t len_b,
                                   const AlignConfig& config) const override;

  bool pair_admissible(std::uint64_t len_a, std::uint64_t len_b,
                       const AlignConfig& config,
                       const PoolConfig& pools) const override;
  std::uint64_t max_sequence_bases() const override { return kWfaMaxSeqBases; }

  double estimate_cells(std::uint64_t len_a, std::uint64_t len_b,
                        const AlignConfig& config,
                        double expected_divergence) const override;

  std::unique_ptr<upmem::DpuProgram> make_program(
      const PimAlignerConfig& config,
      KernelWorkspace* workspace) const override;

  std::span<const KernelPhase> phase_table() const override;

  align::AlignResult host_reference(std::string_view a, std::string_view b,
                                    const AlignConfig& config) const override;
};

}  // namespace pimnw::core
