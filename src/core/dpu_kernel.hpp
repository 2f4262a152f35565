// The DPU alignment kernel (paper §4.2) — the program every DPU runs.
//
// Structure mirrors the paper's kernel:
//  * P pools of T tasklets align P pairs concurrently (§4.2.3). Pairs are
//    pulled from the batch's work list by whichever pool frees up first.
//  * Score state is four anti-diagonal arrays of width w in WRAM (§4.2.1),
//    updated in place. The scalar reference sweeps ascending with carry
//    registers; the fast path walks the band in whichever direction reads
//    every slot before it is overwritten, and its neighbour reads past a
//    band edge hit one kNegInf sentinel slot kept at each end of each array.
//  * Sequences are read from MRAM through sliding 2-bit-packed WRAM windows
//    (§4.1.1), refilled by DMA as the band advances.
//  * Traceback state (4-bit BT rows + window origin per anti-diagonal) is
//    streamed to a per-pool MRAM scratch area (§4.2.2), then walked
//    backwards by the pool's master tasklet to emit a run-length CIGAR.
//    The modeled kernel stages each row in WRAM and DMAs it out; the
//    simulator's fast path stores the packed row straight into the bank
//    through an Mram row cursor, charging the same DMA.
//
// The kernel's arithmetic, tie-breaking and window steering are identical to
// align::banded_adaptive — tests assert bit-identical scores and CIGARs.
// Timing comes from the instruction budgets in dpu_cost.hpp charged to the
// DPU cost model.
#pragma once

#include <cstdint>
#include <vector>

#include "core/dpu_cost.hpp"
#include "core/kernel_simd.hpp"
#include "core/params.hpp"
#include "core/pim_kernel.hpp"
#include "upmem/dpu.hpp"

namespace pimnw::core {

/// Host-side fast-path scratch (DESIGN.md "Simulator fast path"): one
/// decoded byte cache per sequence window, between two simd::kWindowPad
/// pads that a band run's masked lanes may read, and the four band arrays
/// of 16-bit band runs. It models no DPU state, so one instance can be
/// shared by every pool of a launch (pairs align strictly one at a time) and
/// reused across launches — the execution engine keeps one per worker thread
/// instead of reallocating it per DPU launch. Safe to reuse because attach()
/// forces a window refill, and so a re-decode, at the start of every pair,
/// and a pair fills the 16-bit arrays before it sweeps them. (BT rows need
/// no host buffer: the sweep stores them packed, straight into the bank.)
struct KernelScratch {
  /// a's window decoded at its last refill, one code byte per base.
  std::vector<std::uint8_t> cache_a;
  /// b's window likewise, stored back to front so anti-diagonal lanes
  /// read it ascending.
  std::vector<std::uint8_t> cache_b;
  /// H of the even and the odd anti-diagonals, I and D, as 16-bit band runs
  /// keep them (simd::narrow_lanes): w slots each, between simd::kBandPad
  /// slots of simd::kNegInf16.
  std::vector<std::int16_t> narrow_bands;

  /// Size for `band_width`.
  void prepare(std::int64_t band_width);
};

class NwDpuProgram : public upmem::DpuProgram {
 public:
  /// `scratch` may be nullptr (the program then keeps a private arena) or a
  /// caller-owned KernelScratch that must outlive the launch and must not be
  /// shared with a concurrently running program. `vector_isa` is the sweep
  /// SimPath::kAuto runs: simd::auto_isa(), or a narrower one a test names.
  NwDpuProgram(PoolConfig pool_config, KernelVariant variant,
               SimPath sim_path = SimPath::kAuto,
               KernelScratch* scratch = nullptr,
               simd::Isa vector_isa = simd::auto_isa())
      : pool_config_(pool_config),
        cost_(kernel_cost(variant)),
        sim_path_(sim_path),
        scratch_(scratch),
        vector_isa_(vector_isa) {}

  void run(upmem::DpuContext& ctx) override;

 private:
  PoolConfig pool_config_;
  KernelCost cost_;
  SimPath sim_path_;  // host execution strategy; never affects modeled cost
  KernelScratch* scratch_;  // optional shared arena (not owned)
  simd::Isa vector_isa_;
};

/// PimKernel registrant for the banded-NW kernel: the image geometry, flag
/// bits and program construction the engine/layout used to hardcode, now
/// behind the algorithm-agnostic interface (DESIGN.md §16). Every number it
/// reports is byte-identical to the pre-refactor inline arithmetic.
class NwKernel final : public PimKernel {
 public:
  const char* name() const override { return "nw"; }
  const char* description() const override;

  std::uint32_t batch_flags(const AlignConfig& config) const override;
  std::uint64_t pair_scratch_bytes(std::uint64_t len_a, std::uint64_t len_b,
                                   const AlignConfig& config) const override;

  double estimate_cells(std::uint64_t len_a, std::uint64_t len_b,
                        const AlignConfig& config,
                        double expected_divergence) const override;

  std::unique_ptr<KernelWorkspace> make_workspace() const override;
  std::unique_ptr<upmem::DpuProgram> make_program(
      const PimAlignerConfig& config, KernelWorkspace* workspace) const override;

  std::span<const KernelPhase> phase_table() const override;

  align::AlignResult host_reference(std::string_view a, std::string_view b,
                                    const AlignConfig& config) const override;
};

}  // namespace pimnw::core
