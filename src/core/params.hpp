// User-facing configuration of the PiM aligner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "align/scoring.hpp"
#include "upmem/arch.hpp"

namespace pimnw {
class ThreadPool;
}

namespace pimnw::core {

class StatsCollector;
class PimKernel;

/// Which DPU kernel build to model (paper §5.5 / Table 7): the pure-C kernel
/// or the one with the 26 hand-written assembly lines (cmpb4 4-byte SIMD
/// compare + fused shift/jump) in the anti-diagonal update and traceback.
enum class KernelVariant { kPureC, kAsm };

const char* kernel_variant_name(KernelVariant variant);

/// How the simulator *executes* the kernel's per-cell arithmetic on the
/// host. Purely a wall-clock choice: every path produces bit-identical
/// scores, CIGARs, modeled cycles and DMA bytes (tested by
/// kernel_fastpath_test), because the cost model charges per unit of work,
/// not per host instruction (DESIGN.md "Simulator fast path").
enum class SimPath {
  /// Fast path: band runs in the widest copy of the band sweep the build
  /// carries and the CPU runs: AVX-512 (16 lanes), else AVX2 (8), else the
  /// portable copy (4), chosen once per process (simd::auto_isa()). Its BT
  /// rows go straight into the bank. Default.
  kAuto,
  /// The original branchy per-cell reference loop — the kernel spec.
  kScalar,
};

const char* sim_path_name(SimPath path);

/// Tasklet organisation inside each DPU (paper §4.2.3): P pools of T
/// tasklets align P pairs concurrently. The paper's evaluation uses P=6,
/// T=4 (24 tasklets, comfortably above the 11 needed for full pipeline use).
struct PoolConfig {
  int pools = 6;
  int tasklets_per_pool = 4;

  int active_tasklets() const { return pools * tasklets_per_pool; }
};

/// Pairs per rank-batch: `configured` when nonzero, else rank-sized — every
/// pool of every DPU of a rank sees two pairs (kDpusPerRank x pools x 2).
inline std::size_t rank_batch_pairs(std::size_t configured,
                                    const PoolConfig& pool) {
  if (configured != 0) return configured;
  return static_cast<std::size_t>(upmem::kDpusPerRank) *
         static_cast<std::size_t>(pool.pools) * 2;
}

/// Alignment job parameters.
struct AlignConfig {
  align::Scoring scoring = align::default_scoring();
  /// Adaptive band width on the DPU (the paper runs all experiments at 128).
  std::int64_t band_width = 128;
  /// Whether to produce CIGARs (§5.3 runs score-only; §5.2/§5.4 need them).
  bool traceback = true;
  /// WFA kernel only: abort a pair once its alignment cost exceeds this
  /// bound (kStatusUnreachable, exactly like a band miss under NW). The
  /// wavefront memory and work grow with the cost, so the cap is also what
  /// sizes the kernel's per-pool MRAM scratch. Ignored by the NW kernel.
  std::uint64_t wfa_max_cost = 500;
};

/// Full PiM aligner configuration.
struct PimAlignerConfig {
  int nr_ranks = upmem::kDefaultRanks;
  PoolConfig pool;
  /// Which algorithm the DPUs run (core/pim_kernel.hpp); nullptr means the
  /// banded-NW kernel, so existing configs are untouched by the kernel
  /// abstraction.
  const PimKernel* kernel = nullptr;
  KernelVariant variant = KernelVariant::kAsm;
  /// Host execution path of the simulated kernel (never changes results or
  /// modeled time; see SimPath).
  SimPath sim_path = SimPath::kAuto;
  AlignConfig align;
  /// Pairs per rank-batch in the FIFO dispatch (0 = pick automatically:
  /// enough pairs for every pool of every DPU of a rank to see several).
  std::size_t batch_pairs = 0;
  /// Maximum rank-batches in flight in the execution engine (>= 1). Window 1
  /// still overlaps plan-building with execution; larger windows let the
  /// work-stealing workers chew the tail of one batch while the next's DPU
  /// jobs spread out. Never changes results or modeled time.
  std::size_t batch_window = 4;
  /// Worker pool for the engine and the simulated DPUs; nullptr means the
  /// process-wide global_pool(). Tests inject 1- and 2-thread pools here.
  ThreadPool* workers = nullptr;
  /// Optional run-statistics observer (core/stats.hpp). The engine feeds it
  /// from the sequenced commit stage; it never participates in the modeled
  /// arithmetic, so attaching one cannot change any reported number.
  StatsCollector* stats = nullptr;
  /// Re-check every DPU result on the host against the reference
  /// implementation (slow; used by tests and debugging).
  bool verify = false;
};

/// One-line JSON object capturing the modeled-relevant configuration, used
/// by the provenance stamp on stats/bench reports (DESIGN.md §12).
std::string params_json(const PimAlignerConfig& config);

}  // namespace pimnw::core
