// Algorithm-agnostic PiM kernel interface (DESIGN.md §16).
//
// The engine, MRAM layout, session and backend layers run any algorithm
// through this interface; a PimKernel owns only what differs by algorithm:
//
//  * image planning — batch_flags / pair_scratch_bytes feed
//    core/mram_layout.cpp, which keeps the *shared* container format
//    (BatchHeader, tables, CIGAR slots, results) and asks the kernel only
//    for the algorithm-specific numbers. Flag-word bits other than
//    kFlagSession (a layout-level concern) are owned by the kernel.
//  * admission — pair_admissible rejects pairs whose WRAM working set the
//    kernel cannot host, max_sequence_bases states the per-side cap behind
//    it (MRAM admission stays generic via single_pair_image_bytes, which
//    already consults the kernel's hooks).
//  * routing — estimate_cells is the work model PimBackend's cost estimate
//    divides by the simulator's throughput.
//  * execution — make_program builds the upmem::DpuProgram for one launch,
//    an alignment recurrence inside the shared batch protocol of
//    core/kernel_io.hpp; make_workspace builds the per-worker host-side
//    scratch arena the engine keeps per thread (purely host wall-clock,
//    never modeled).
//  * profiling — phase_table declares which upmem::Phase rows the kernel
//    charges and what to call them, so pimnw_prof and the reconciliation
//    tests key off the kernel instead of a hand-maintained table.
//  * verification — host_reference is the executable specification the
//    verify mode cross-checks every DPU result against.
//
// Contract notes:
//  * pair_scratch_bytes must be monotone non-decreasing in each length
//    argument — the layout takes the max over a batch's pairs (and
//    DbSession over the database's two longest sequences) and relies on
//    monotonicity for that max to be the honest worst case.
//  * Kernels are stateless singletons; all launch state lives in the
//    DpuProgram instance and the (optional) KernelWorkspace.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "align/result.hpp"
#include "core/params.hpp"
#include "upmem/dpu.hpp"

namespace pimnw::core {

/// Per-worker host-side scratch owned by the execution engine's arenas.
/// Holds whatever the kernel's simulator wants to reuse across launches
/// (e.g. the NW fast path's decoded window caches); models no DPU state.
class KernelWorkspace {
 public:
  virtual ~KernelWorkspace() = default;
};

/// One row of a kernel's phase table: the cost-model attribution slot it
/// charges plus the kernel-specific label to print for it.
struct KernelPhase {
  upmem::Phase phase;
  const char* label;
};

class PimKernel {
 public:
  virtual ~PimKernel() = default;

  /// Registry name (e.g. "nw", "wfa") — stable, used in params_json and CLI.
  virtual const char* name() const = 0;
  /// One-line capability summary for --list-kernels.
  virtual const char* description() const = 0;

  // --- MRAM image planning (consumed by core/mram_layout.cpp) ---

  /// Kernel-owned bits of BatchHeader::flags for this config. The layout
  /// ORs in kFlagSession itself for session rounds.
  virtual std::uint32_t batch_flags(const AlignConfig& config) const = 0;
  /// Per-pool MRAM scratch bytes a (len_a, len_b) pair needs (BT rows for
  /// NW, retained wavefronts for WFA). The layout sizes one stride per pool
  /// as the max over the batch's pairs.
  virtual std::uint64_t pair_scratch_bytes(std::uint64_t len_a,
                                           std::uint64_t len_b,
                                           const AlignConfig& config) const = 0;

  // --- admission ---

  /// Whether the kernel's WRAM working set can host this pair at all
  /// (MRAM admission is generic: single_pair_image_bytes vs the bank).
  virtual bool pair_admissible(std::uint64_t len_a, std::uint64_t len_b,
                               const AlignConfig& config,
                               const PoolConfig& pools) const {
    (void)len_a;
    (void)len_b;
    (void)config;
    (void)pools;
    return true;
  }

  /// Longest sequence, per side, the kernel's WRAM can hold; 0 when only
  /// the MRAM bank limits it.
  virtual std::uint64_t max_sequence_bases() const { return 0; }

  // --- routing ---

  /// Work of one (len_a, len_b) pair in the kernel's own cells (banded DP
  /// cells for NW, wavefront cells for WFA). `expected_divergence` is the
  /// per-base divergence prior of kernels whose work grows with the
  /// alignment cost.
  virtual double estimate_cells(std::uint64_t len_a, std::uint64_t len_b,
                                const AlignConfig& config,
                                double expected_divergence) const = 0;

  // --- execution ---

  /// Per-worker host scratch; may return nullptr when the kernel keeps no
  /// cross-launch host state.
  virtual std::unique_ptr<KernelWorkspace> make_workspace() const {
    return nullptr;
  }

  /// Build the program for one DPU launch. `workspace` is this worker's
  /// arena from make_workspace(), or nullptr (the program then allocates
  /// private scratch — same results, more host allocation).
  virtual std::unique_ptr<upmem::DpuProgram> make_program(
      const PimAlignerConfig& config, KernelWorkspace* workspace) const = 0;

  // --- profiling ---

  /// The cost-model phases this kernel charges, with kernel-specific labels,
  /// in display order. Attribution itself stays in upmem/cost_model (it is
  /// kernel-agnostic); this table is how consumers know which rows are live
  /// and what they mean for this algorithm.
  virtual std::span<const KernelPhase> phase_table() const = 0;

  // --- verification ---

  /// Host-side executable specification: the result every DPU output must
  /// be bit-identical to (PimAlignerConfig::verify re-checks each pair).
  virtual align::AlignResult host_reference(std::string_view a,
                                            std::string_view b,
                                            const AlignConfig& config) const = 0;
};

/// The banded adaptive Needleman–Wunsch kernel (paper §4.2) — the first
/// registrant; the default when PimAlignerConfig::kernel is null.
const PimKernel& nw_kernel();

/// The wavefront-alignment kernel (ROADMAP item 4, Diab et al. 2204.02085):
/// exact affine WFA with MRAM-streamed wavefronts.
const PimKernel& wfa_kernel();

/// All registered kernels, in registration order. A deterministic explicit
/// list (not static-init magic): a kernel in a static library with no other
/// reference would be dropped by the linker before any registrar ran.
std::span<const PimKernel* const> registered_kernels();

/// Look up a kernel by registry name; nullptr when unknown.
const PimKernel* find_kernel(std::string_view name);

/// The kernel a config runs: config.kernel, defaulting to nw_kernel().
inline const PimKernel& kernel_for(const PimAlignerConfig& config) {
  return config.kernel != nullptr ? *config.kernel : nw_kernel();
}

}  // namespace pimnw::core
