#include "core/projection.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "core/load_balance.hpp"
#include "upmem/cost_model.hpp"
#include "util/check.hpp"

namespace pimnw::core {
namespace {

/// Cycles a DPU takes to process `pair_cycles` with the kernel's dynamic
/// pool scheduling: each pair goes to the least-loaded of P pools; the DPU
/// finishes when its slowest pool does. `pairs` must be in dispatch order.
std::uint64_t dpu_cycles_for(const std::vector<std::uint64_t>& pair_cycles,
                             int pools, std::uint64_t launch_setup) {
  using HeapEntry = std::pair<std::uint64_t, int>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  for (int p = 0; p < pools; ++p) heap.emplace(launch_setup, p);
  std::uint64_t max_load = launch_setup;
  for (std::uint64_t cycles : pair_cycles) {
    auto [load, p] = heap.top();
    heap.pop();
    const std::uint64_t new_load = load + cycles;
    max_load = std::max(max_load, new_load);
    heap.emplace(new_load, p);
  }
  return max_load;
}

}  // namespace

ProjectionResult project_run(std::span<const MeasuredPair> measured,
                             const ProjectionConfig& config) {
  ProjectionResult result;
  PIMNW_CHECK_MSG(!measured.empty(), "no measured pairs to project from");
  PIMNW_CHECK_MSG(config.replicate >= 1, "replicate must be >= 1");

  const std::uint64_t virtual_pairs =
      static_cast<std::uint64_t>(measured.size()) * config.replicate;
  result.virtual_pairs = virtual_pairs;

  const std::size_t batch_pairs =
      rank_batch_pairs(config.batch_pairs, config.pool);

  std::vector<double> rank_free(static_cast<std::size_t>(config.nr_ranks), 0.0);
  std::vector<double> rank_exec(static_cast<std::size_t>(config.nr_ranks), 0.0);
  double prep_clock = 0.0;
  double makespan = 0.0;
  double imbalance_sum = 0.0;
  double occupancy_sum = 0.0;
  std::uint64_t occupancy_count = 0;

  // Virtual pair v corresponds to measured[v % measured.size()].
  for (std::uint64_t batch_start = 0; batch_start < virtual_pairs;
       batch_start += batch_pairs) {
    const std::uint64_t batch_end =
        std::min<std::uint64_t>(virtual_pairs, batch_start + batch_pairs);

    std::vector<WorkItem> items;
    items.reserve(static_cast<std::size_t>(batch_end - batch_start));
    for (std::uint64_t v = batch_start; v < batch_end; ++v) {
      const MeasuredPair& mp = measured[v % measured.size()];
      // WorkItem.id indexes into `measured` — all we need downstream.
      items.push_back({static_cast<std::uint32_t>(v % measured.size()),
                       mp.workload});
    }
    Assignment assignment;
    if (config.balance == BalancePolicy::kLpt) {
      assignment = lpt_assign(std::move(items), upmem::kDpusPerRank);
    } else {
      // Round-robin strawman: no workload awareness.
      assignment.bins.resize(upmem::kDpusPerRank);
      assignment.bin_load.assign(upmem::kDpusPerRank, 0);
      for (std::size_t n = 0; n < items.size(); ++n) {
        const std::size_t d = n % upmem::kDpusPerRank;
        assignment.bins[d].push_back(items[n]);
        assignment.bin_load[d] += items[n].workload;
      }
    }
    imbalance_sum += assignment.imbalance();

    std::uint64_t max_dpu_cycles = 0;
    std::uint64_t to_dpu_bytes = 0;
    std::uint64_t readback_bytes = 0;
    std::uint64_t bases = 0;
    std::uint64_t pairs_in_batch = 0;
    for (int d = 0; d < upmem::kDpusPerRank; ++d) {
      const auto& bin = assignment.bins[static_cast<std::size_t>(d)];
      if (bin.empty()) continue;
      std::vector<std::uint64_t> pair_cycles;
      pair_cycles.reserve(bin.size());
      std::uint64_t busy_cycles = 0;
      for (const WorkItem& item : bin) {
        const MeasuredPair& mp = measured[item.id];
        pair_cycles.push_back(mp.pool_cycles);
        busy_cycles += mp.pool_cycles;
        to_dpu_bytes += mp.to_dpu_bytes;
        readback_bytes += mp.readback_bytes;
        bases += mp.bases;
      }
      pairs_in_batch += bin.size();
      const std::uint64_t dpu_cycles = dpu_cycles_for(
          pair_cycles, config.pool.pools, config.launch_setup_cycles);
      max_dpu_cycles = std::max(max_dpu_cycles, dpu_cycles);
      if (dpu_cycles > 0) {
        occupancy_sum += static_cast<double>(busy_cycles) /
                         (static_cast<double>(config.pool.pools) *
                          static_cast<double>(dpu_cycles));
        ++occupancy_count;
      }
    }

    const double prep_seconds =
        static_cast<double>(bases) * config.host.per_base_seconds +
        static_cast<double>(pairs_in_batch) * config.host.per_pair_seconds;
    prep_clock += prep_seconds;
    result.host_prep_seconds += prep_seconds;

    const double xfer_in =
        static_cast<double>(to_dpu_bytes) / upmem::kHostXferBytesPerSec;
    const double xfer_out =
        static_cast<double>(readback_bytes) / upmem::kHostXferBytesPerSec;
    const double exec =
        static_cast<double>(max_dpu_cycles) / upmem::kDpuFrequencyHz;
    result.transfer_seconds += xfer_in + xfer_out;

    const int r = static_cast<int>(
        std::min_element(rank_free.begin(), rank_free.end()) -
        rank_free.begin());
    const double start =
        std::max(prep_clock, rank_free[static_cast<std::size_t>(r)]);
    const double end = start + xfer_in + config.host.per_launch_seconds +
                       exec + xfer_out;
    rank_free[static_cast<std::size_t>(r)] = end;
    rank_exec[static_cast<std::size_t>(r)] += exec;
    makespan = std::max(makespan, end);
    ++result.batches;
  }

  result.makespan_seconds = makespan;
  const double busiest_exec =
      *std::max_element(rank_exec.begin(), rank_exec.end());
  result.host_overhead_fraction =
      makespan > 0 ? (makespan - busiest_exec) / makespan : 0.0;
  if (result.batches > 0) {
    result.load_imbalance =
        imbalance_sum / static_cast<double>(result.batches);
  }
  if (occupancy_count > 0) {
    result.mean_pool_occupancy =
        occupancy_sum / static_cast<double>(occupancy_count);
  }
  return result;
}

ProjectionResult project_all_vs_all(std::span<const MeasuredPair> measured,
                                    const ProjectionConfig& config,
                                    std::uint64_t broadcast_bytes) {
  ProjectionResult result;
  PIMNW_CHECK_MSG(!measured.empty(), "no measured pairs to project from");

  const std::uint64_t virtual_pairs =
      static_cast<std::uint64_t>(measured.size()) * config.replicate;
  result.virtual_pairs = virtual_pairs;
  result.batches = static_cast<std::uint64_t>(config.nr_ranks);

  const int total_dpus = config.nr_ranks * upmem::kDpusPerRank;
  const auto ranges = static_split(virtual_pairs, total_dpus);

  const double bcast_seconds =
      static_cast<double>(broadcast_bytes) *
      static_cast<double>(total_dpus) / upmem::kHostXferBytesPerSec;
  result.transfer_seconds += bcast_seconds;

  // Each rank: transfer its descriptors, execute (max over its DPUs),
  // read scores back. Ranks overlap after the broadcast.
  double makespan = bcast_seconds;
  double occupancy_sum = 0.0;
  std::uint64_t occupancy_count = 0;
  for (int r = 0; r < config.nr_ranks; ++r) {
    std::uint64_t max_dpu_cycles = 0;
    std::uint64_t to_dpu_bytes = 0;
    std::uint64_t readback_bytes = 0;
    for (int d = 0; d < upmem::kDpusPerRank; ++d) {
      const auto [first, last] =
          ranges[static_cast<std::size_t>(r * upmem::kDpusPerRank + d)];
      if (first >= last) continue;
      std::vector<std::uint64_t> pair_cycles;
      pair_cycles.reserve(static_cast<std::size_t>(last - first));
      std::uint64_t busy_cycles = 0;
      for (std::uint64_t v = first; v < last; ++v) {
        const MeasuredPair& mp = measured[v % measured.size()];
        pair_cycles.push_back(mp.pool_cycles);
        busy_cycles += mp.pool_cycles;
        to_dpu_bytes += sizeof(std::uint32_t) * 6;  // descriptor only
        readback_bytes += mp.readback_bytes;
      }
      const std::uint64_t dpu_cycles = dpu_cycles_for(
          pair_cycles, config.pool.pools, config.launch_setup_cycles);
      max_dpu_cycles = std::max(max_dpu_cycles, dpu_cycles);
      if (dpu_cycles > 0) {
        occupancy_sum += static_cast<double>(busy_cycles) /
                         (static_cast<double>(config.pool.pools) *
                          static_cast<double>(dpu_cycles));
        ++occupancy_count;
      }
    }
    const double xfer_in =
        static_cast<double>(to_dpu_bytes) / upmem::kHostXferBytesPerSec;
    const double xfer_out =
        static_cast<double>(readback_bytes) / upmem::kHostXferBytesPerSec;
    const double exec =
        static_cast<double>(max_dpu_cycles) / upmem::kDpuFrequencyHz;
    result.transfer_seconds += xfer_in + xfer_out;
    makespan = std::max(makespan, bcast_seconds + xfer_in +
                                      config.host.per_launch_seconds + exec +
                                      xfer_out);
  }
  result.makespan_seconds = makespan;
  result.host_overhead_fraction =
      makespan > 0 ? (makespan - (makespan - bcast_seconds)) / makespan : 0.0;
  if (occupancy_count > 0) {
    result.mean_pool_occupancy =
        occupancy_sum / static_cast<double>(occupancy_count);
  }
  return result;
}

}  // namespace pimnw::core
