// Host orchestrator (paper §4.1): the public entry point of the PiM aligner.
//
// Pairwise mode (Tables 2–4, 6) follows the paper's main loop: read/encode
// groups of pairs, split them into rank-sized batches pushed to a FIFO,
// LPT-balance each batch across the 64 DPUs of whichever rank frees up
// first, transfer, launch, collect. All-vs-all comparisons over a fixed
// database (Table 5) go through core/session.hpp, which broadcasts the
// database once and then moves only index pairs.
//
// Time is modeled, not measured: DPU execution comes from the simulator's
// cycle accounting, transfers from the 60 GB/s bus model, host pre/post
// processing from HostCost, composed on an event timeline where transfers
// serialise with their target rank and with each other (one DDR channel
// pool) while distinct ranks execute concurrently.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <functional>

#include "align/result.hpp"
#include "core/dpu_cost.hpp"
#include "core/params.hpp"
#include "core/types.hpp"

namespace pimnw::core {

struct Assignment;
struct WorkItem;
struct DpuPlan;
class SeqInterner;

/// Everything the benches need to reproduce the paper's measurements.
struct RunReport {
  double makespan_seconds = 0.0;  // modeled end-to-end wall time
  double transfer_seconds = 0.0;  // total host<->MRAM bus time
  double host_prep_seconds = 0.0; // modeled encode/dispatch/decode time
  /// Fraction of the makespan not covered by DPU execution on the critical
  /// rank (the paper's "overhead of the host orchestration", §5: 15% on
  /// S1000 down to <0.1% on S30000).
  double host_overhead_fraction = 0.0;
  double mean_pipeline_utilization = 0.0;  // §5: 95–99%
  double mean_mram_overhead = 0.0;         // §5: 1–5%
  /// Mean over batches of (slowest DPU load / mean DPU load) — the rank
  /// barrier penalty the LPT balancer minimises (§4.1.2).
  double load_imbalance = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t total_pairs = 0;
  /// Pairs rejected before dispatch, because a base lies outside A/C/G/T
  /// (PairStatus::kInvalidInput) or the lone-pair MRAM image exceeds the
  /// 64 MB bank (PairStatus::kOversized); not in total_pairs.
  std::uint64_t rejected_pairs = 0;
  std::uint64_t bytes_to_dpus = 0;
  /// Portion of bytes_to_dpus that was one-time broadcast traffic (the
  /// all-vs-all pool / session database, counted once per DPU bank). The
  /// per-round marginal traffic is bytes_to_dpus - bytes_broadcast.
  std::uint64_t bytes_broadcast = 0;
  std::uint64_t bytes_from_dpus = 0;
  std::uint64_t total_instructions = 0;
  std::uint64_t total_dma_bytes = 0;
};

class PimAligner {
 public:
  explicit PimAligner(PimAlignerConfig config);

  const PimAlignerConfig& config() const { return config_; }

  /// Align each (a, b) pair. When `out` is non-null it receives one
  /// PairOutput per input pair (same order). A pair with a base outside
  /// A/C/G/T resolves PairStatus::kInvalidInput and one whose lone-pair
  /// image exceeds the bank PairStatus::kOversized, without being
  /// dispatched; the other pairs still align.
  RunReport align_pairs(std::span<const PairInput> pairs,
                        std::vector<PairOutput>* out);

  /// Align every pair within each set (the PacBio consensus pre-step,
  /// §5.4): whole sets are LPT-dispatched to DPUs so each read's packed
  /// bases cross the bus once per set instead of once per pair.
  /// `out[s]` receives the set's pair results, enumerated row-major
  /// ((0,1),(0,2),...,(1,2),...). Each pair is admitted as align_pairs
  /// admits it (kInvalidInput, kOversized), and the rest of its set still
  /// aligns.
  RunReport align_sets(std::span<const std::vector<std::string>> sets,
                       std::vector<std::vector<PairOutput>>* out);

 private:
  /// The one batched run path both public modes share: a run is
  /// `n_batches` rank-batches, each described by an Assignment of work
  /// units to the 64 DPUs; `emit` expands one unit into its pairs inside a
  /// DPU plan. Differences between the modes reduce to the closures.
  struct RunSpec {
    std::size_t n_batches = 0;
    std::uint64_t total_pairs = 0;
    /// Bins of batch b (LPT over pairs or over whole sets). Must be
    /// thread-safe: the engine builds several batches concurrently.
    std::function<Assignment(std::size_t)> assign;
    /// Append unit `item`'s pairs to `plan`, interning their sequences.
    std::function<void(const WorkItem&, DpuPlan&, SeqInterner&)> emit;
    /// The (a, b) views of flat-output slot `global_id` — the shared
    /// verify-mode loop re-aligns every slot through this.
    std::function<PairInput(std::uint32_t)> pair_of;
  };

  RunReport run_batches(const RunSpec& spec, std::vector<PairOutput>* out);

  PimAlignerConfig config_;
  HostCost host_cost_ = kDefaultHostCost;
};

}  // namespace pimnw::core
