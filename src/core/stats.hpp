// Per-run execution statistics (ISSUE 3, DESIGN.md "Observability").
//
// StatsCollector is a passive observer the execution engine feeds from its
// sequenced commit stage: one LaunchRecord per rank-batch (timeline
// placement + cycle aggregates), banded-cell totals for GCUPS and
// work-stealing counters from the thread pool. The per-DPU cycle count,
// min, mean and max are derived from the LaunchRecords, not kept twice.
// It never participates in the RunReport arithmetic, so modeled outputs are
// bit-identical whether or not a collector (or tracing) is attached —
// engine_test pins this. The collector is run-scoped and writes no
// process-wide state: the engine writes the matching Prometheus series
// itself, next to its byte counters (DESIGN.md §17).
//
// When tracing is enabled (util/trace.hpp) the collector also reconstructs
// the *modeled PiM timeline* as trace spans: a lane per rank (transfer /
// launch / readback) and a lane per DPU whose spans carry the modeled cycle
// counts, converted to seconds at upmem::kDpuFrequencyHz. Summing the
// per-DPU span cycles therefore reproduces the LaunchStats aggregates
// exactly (trace_test and engine_test assert this).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "upmem/cost_model.hpp"
#include "upmem/rank.hpp"

namespace pimnw::core {

struct RunReport;

/// One rank-batch launch as the commit stage placed it on the modeled
/// timeline.
struct LaunchRecord {
  std::uint64_t batch = 0;
  int rank = 0;
  double start_seconds = 0.0;       // max(prep ready, rank free)
  double exec_start_seconds = 0.0;  // after in-transfer + launch overhead
  double exec_end_seconds = 0.0;
  double end_seconds = 0.0;         // after the readback transfer
  std::uint64_t max_cycles = 0;     // == LaunchStats.max_cycles
  std::uint64_t min_cycles = 0;     // min cycles over the launched DPUs
  std::uint64_t sum_dpu_cycles = 0; // Σ cycles over the launched DPUs
  int active_dpus = 0;
  // Profiler view (zero unless the engine passed per-DPU phase profiles).
  // attributed_cycles == sum_dpu_cycles whenever profiles were attached —
  // the reconciliation invariant, pinned by profiler_test.
  std::uint64_t attributed_cycles = 0;
  upmem::Bottleneck bottleneck = upmem::Bottleneck::kPipeline;
  /// Launched DPUs whose verdict was pipeline/MRAM/reentry-bound, indexed by
  /// static_cast<int>(Bottleneck).
  std::array<int, 3> verdict_dpus{};
};

class StatsCollector {
 public:
  /// Record one committed launch; emits modeled-timeline trace spans when
  /// tracing is enabled. `start` is the batch's timeline start,
  /// `in_seconds`/`overhead_seconds`/`out_seconds` the transfer-in, launch
  /// overhead and readback legs; execution duration comes from `agg`.
  /// `profiles`, when non-null, carries the per-DPU phase attribution of the
  /// launch (slots of DPUs that did not run are ignored); the collector then
  /// aggregates a run-wide DpuPhaseProfile, records per-launch bottleneck
  /// verdicts, and — when tracing is on — tiles each modeled DPU span with
  /// phase sub-spans and emits utilisation counter tracks.
  void on_launch(
      std::uint64_t batch, int rank, double start, double in_seconds,
      double overhead_seconds, double out_seconds,
      const std::array<upmem::DpuCostModel::Summary, upmem::kDpusPerRank>&
          summaries,
      const std::array<bool, upmem::kDpusPerRank>& ran,
      const upmem::LaunchStats& agg,
      const std::array<upmem::DpuPhaseProfile, upmem::kDpusPerRank>*
          profiles = nullptr);

  /// Record a broadcast (the all-vs-all pool / session database upload;
  /// delays every rank equally). Counted separately from per-batch launch
  /// traffic so amortization across session rounds is visible.
  void on_broadcast(double seconds, std::uint64_t bytes, int nr_ranks);

  std::uint64_t broadcasts() const { return broadcasts_; }
  std::uint64_t broadcast_bytes() const { return broadcast_bytes_; }
  double broadcast_seconds() const { return broadcast_seconds_; }

  /// Banded DP cells of a committed batch (Σ pair_workload) — GCUPS input.
  void add_cells(std::uint64_t cells);

  /// Thread-pool counter deltas over the observed run.
  void note_pool(std::uint64_t executed, std::uint64_t stolen,
                 std::uint64_t injected);

  const std::vector<LaunchRecord>& launches() const { return launches_; }
  std::uint64_t total_cells() const { return cells_; }
  /// Per-DPU cycle distribution over every launched DPU of the run, derived
  /// from launches() (all zero before the first launch).
  std::uint64_t dpu_count() const;
  std::uint64_t dpu_cycles_min() const;
  std::uint64_t dpu_cycles_max() const;
  double dpu_cycles_mean() const;
  /// Run-wide phase profile: the merge of every launched DPU's
  /// DpuPhaseProfile (empty/has_profile()==false when the engine never
  /// attached profiles).
  bool has_profile() const { return has_profile_; }
  const upmem::DpuPhaseProfile& profile() const { return profile_; }
  /// DPU launches per bottleneck verdict, indexed by
  /// static_cast<int>(Bottleneck).
  const std::array<std::uint64_t, 3>& verdict_dpus() const {
    return verdict_dpus_;
  }

  /// Params snapshot (core::params_json) stamped into the report's
  /// provenance block; the engine sets it at construction.
  void set_params(std::string params_json) { params_ = std::move(params_json); }
  const std::string& params() const { return params_; }

  std::uint64_t pool_executed() const { return pool_executed_; }
  std::uint64_t pool_stolen() const { return pool_stolen_; }
  std::uint64_t pool_injected() const { return pool_injected_; }

  /// The per-run report: RunReport numbers plus derived throughput
  /// (pairs/s, GCUPS), the per-DPU cycle distribution, and the engine
  /// counters, as JSON.
  void write_json(std::ostream& out, const RunReport& report) const;
  bool write_json_file(const std::string& path,
                       const RunReport& report) const;

 private:
  /// Modeled-lane tid allocation: rank r owns a contiguous block of
  /// kDpusPerRank + 1 tids starting at lane_base(r); the first is the rank
  /// lane, the rest the per-DPU lanes.
  static std::uint32_t lane_base(int rank);
  void name_rank_lanes(int rank);

  std::vector<LaunchRecord> launches_;
  std::vector<bool> rank_lanes_named_;
  upmem::DpuPhaseProfile profile_;
  bool has_profile_ = false;
  std::array<std::uint64_t, 3> verdict_dpus_{};
  std::string params_;
  std::uint64_t cells_ = 0;
  std::uint64_t broadcasts_ = 0;
  std::uint64_t broadcast_bytes_ = 0;
  double broadcast_seconds_ = 0.0;
  std::uint64_t pool_executed_ = 0;
  std::uint64_t pool_stolen_ = 0;
  std::uint64_t pool_injected_ = 0;
};

}  // namespace pimnw::core
