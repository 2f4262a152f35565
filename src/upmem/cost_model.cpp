#include "upmem/cost_model.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pimnw::upmem {

std::uint64_t dma_cycles(std::uint64_t bytes) {
  return kDmaSetupCycles +
         static_cast<std::uint64_t>(static_cast<double>(bytes) /
                                    kDmaBytesPerCycle);
}

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kSetup: return "setup";
    case Phase::kCompute: return "compute";
    case Phase::kBandShift: return "band_shift";
    case Phase::kBtDma: return "bt_dma";
    case Phase::kTraceback: return "traceback";
    case Phase::kCount: break;
  }
  return "?";
}

int dma_hist_bucket(std::uint64_t bytes) {
  int bucket = 0;
  std::uint64_t bound = kDmaMinBytes;
  while (bucket + 1 < kDmaHistBuckets && bytes > bound) {
    bound <<= 1;
    ++bucket;
  }
  return bucket;
}

std::uint64_t dma_hist_bucket_bytes(int bucket) {
  return static_cast<std::uint64_t>(kDmaMinBytes) << bucket;
}

const char* bottleneck_name(Bottleneck b) {
  switch (b) {
    case Bottleneck::kPipeline: return "pipeline-bound";
    case Bottleneck::kMram: return "mram-bound";
    case Bottleneck::kReentry: return "reentry-bound";
  }
  return "?";
}

Bottleneck classify_bottleneck(std::uint64_t issue_cycles,
                               std::uint64_t dma_stall_cycles,
                               std::uint64_t reentry_stall_cycles) {
  if (issue_cycles >= dma_stall_cycles &&
      issue_cycles >= reentry_stall_cycles) {
    return Bottleneck::kPipeline;
  }
  if (dma_stall_cycles >= reentry_stall_cycles) return Bottleneck::kMram;
  return Bottleneck::kReentry;
}

void DpuPhaseProfile::merge(const DpuPhaseProfile& other) {
  cycles += other.cycles;
  for (int ph = 0; ph < kPhaseCount; ++ph) {
    const auto i = static_cast<std::size_t>(ph);
    issue_cycles[i] += other.issue_cycles[i];
    dma_stall_cycles[i] += other.dma_stall_cycles[i];
    dma_bytes[i] += other.dma_bytes[i];
  }
  reentry_stall_cycles += other.reentry_stall_cycles;
  mram_contention_cycles += other.mram_contention_cycles;
  for (int t = 0; t < kMaxTasklets; ++t) {
    tasklet_instr[static_cast<std::size_t>(t)] +=
        other.tasklet_instr[static_cast<std::size_t>(t)];
  }
  active_tasklets = std::max(active_tasklets, other.active_tasklets);
  for (int b = 0; b < kDmaHistBuckets; ++b) {
    dma_hist[static_cast<std::size_t>(b)] +=
        other.dma_hist[static_cast<std::size_t>(b)];
  }
  bottleneck = classify_bottleneck(total_issue_cycles(),
                                   total_dma_stall_cycles(),
                                   reentry_stall_cycles);
}

void PoolCost::step(std::initializer_list<std::uint64_t> per_tasklet_instr) {
  std::uint64_t max_instr = 0;
  std::uint64_t sum = 0;
  std::size_t t = 0;
  for (std::uint64_t instr : per_tasklet_instr) {
    max_instr = std::max(max_instr, instr);
    sum += instr;
    if (t < static_cast<std::size_t>(kMaxTasklets)) {
      tasklet_instr_[t] += instr;
    }
    ++t;
  }
  total_instr_ += sum;
  critical_instr_ += max_instr;
  phase_instr_[static_cast<std::size_t>(phase_)] += sum;
}

void PoolCost::step(const std::vector<std::uint64_t>& per_tasklet_instr) {
  std::uint64_t max_instr = 0;
  std::uint64_t sum = 0;
  for (std::size_t t = 0; t < per_tasklet_instr.size(); ++t) {
    const std::uint64_t instr = per_tasklet_instr[t];
    max_instr = std::max(max_instr, instr);
    sum += instr;
    if (t < static_cast<std::size_t>(kMaxTasklets)) {
      tasklet_instr_[t] += instr;
    }
  }
  total_instr_ += sum;
  critical_instr_ += max_instr;
  phase_instr_[static_cast<std::size_t>(phase_)] += sum;
}

void PoolCost::balanced_step(std::uint64_t total_instr, int tasklets,
                             std::uint64_t repeat) {
  PIMNW_CHECK(tasklets >= 1);
  const std::uint64_t t = static_cast<std::uint64_t>(tasklets);
  critical_instr_ += repeat * ((total_instr + t - 1) / t);
  total_instr_ += repeat * total_instr;
  phase_instr_[static_cast<std::size_t>(phase_)] += repeat * total_instr;
  // Occupancy attribution: the first (total % t) tasklets run one extra
  // instruction — the same ceil/floor split the critical path assumes.
  const std::uint64_t base = total_instr / t;
  const std::uint64_t extra = total_instr % t;
  const int used = std::min(tasklets, kMaxTasklets);
  for (int i = 0; i < used; ++i) {
    tasklet_instr_[static_cast<std::size_t>(i)] +=
        repeat * (base + (static_cast<std::uint64_t>(i) < extra ? 1 : 0));
  }
}

void PoolCost::serial(std::uint64_t instr, std::uint64_t repeat) {
  critical_instr_ += repeat * instr;
  total_instr_ += repeat * instr;
  phase_instr_[static_cast<std::size_t>(phase_)] += repeat * instr;
  tasklet_instr_[0] += repeat * instr;  // serial sections run on the master
}

void PoolCost::dma(std::uint64_t bytes, std::uint64_t repeat) {
  const std::uint64_t cycles = dma_cycles(bytes);
  critical_dma_cycles_ += repeat * cycles;
  dma_bytes_ += repeat * bytes;
  phase_dma_cycles_[static_cast<std::size_t>(phase_)] += repeat * cycles;
  phase_dma_bytes_[static_cast<std::size_t>(phase_)] += repeat * bytes;
  dma_hist_[static_cast<std::size_t>(dma_hist_bucket(bytes))] += repeat;
}

DpuCostModel::DpuCostModel(int pools, int tasklets_per_pool)
    : tasklets_per_pool_(tasklets_per_pool) {
  PIMNW_CHECK_MSG(pools >= 1 && tasklets_per_pool >= 1,
                  "need at least one pool of one tasklet");
  PIMNW_CHECK_MSG(pools * tasklets_per_pool <= kMaxTasklets,
                  "P*T = " << pools * tasklets_per_pool << " exceeds the "
                           << kMaxTasklets << " hardware tasklets");
  pool_costs_.resize(static_cast<std::size_t>(pools));
}

PoolCost& DpuCostModel::pool(int p) {
  PIMNW_CHECK(p >= 0 && p < pools());
  return pool_costs_[static_cast<std::size_t>(p)];
}

const PoolCost& DpuCostModel::pool(int p) const {
  PIMNW_CHECK(p >= 0 && p < pools());
  return pool_costs_[static_cast<std::size_t>(p)];
}

int DpuCostModel::least_loaded_pool() const {
  int best = 0;
  std::uint64_t best_load = ~std::uint64_t{0};
  for (int p = 0; p < pools(); ++p) {
    const PoolCost& pc = pool_costs_[static_cast<std::size_t>(p)];
    const std::uint64_t load =
        pc.critical_instr() * issue_interval(active_tasklets()) +
        pc.critical_dma_cycles();
    if (load < best_load) {
      best_load = load;
      best = p;
    }
  }
  return best;
}

DpuCostModel::Summary DpuCostModel::summarize() const {
  Summary s;
  std::uint64_t slowest_pool = 0;
  for (const PoolCost& pc : pool_costs_) {
    const std::uint64_t pool_cycles =
        pc.critical_instr() * issue_interval(active_tasklets()) +
        pc.critical_dma_cycles();
    slowest_pool = std::max(slowest_pool, pool_cycles);
    s.instructions += pc.total_instr();
    s.dma_cycles_total += pc.critical_dma_cycles();
    s.dma_bytes += pc.dma_bytes();
  }
  s.cycles = std::max({slowest_pool, s.instructions, s.dma_cycles_total});
  if (s.cycles > 0) {
    s.pipeline_utilization =
        static_cast<double>(s.instructions) / static_cast<double>(s.cycles);
    // MRAM overhead: cycles beyond the pure-issue lower bound, attributable
    // to DMA on the critical path.
    const std::uint64_t compute_only =
        std::max(s.cycles - s.dma_cycles_total, s.instructions);
    s.mram_overhead = static_cast<double>(s.cycles - compute_only) /
                      static_cast<double>(s.cycles);
  }
  s.seconds = static_cast<double>(s.cycles) / kDpuFrequencyHz;
  return s;
}

DpuPhaseProfile DpuCostModel::profile() const {
  const Summary s = summarize();
  DpuPhaseProfile prof;
  prof.cycles = s.cycles;
  prof.active_tasklets = active_tasklets();

  // Fold the pool counters. Tasklet t of pool p → hardware slot p·T + t.
  std::array<std::uint64_t, kPhaseCount> phase_dma{};
  std::uint64_t max_pool_dma = 0;
  for (int p = 0; p < pools(); ++p) {
    const PoolCost& pc = pool_costs_[static_cast<std::size_t>(p)];
    for (int ph = 0; ph < kPhaseCount; ++ph) {
      const auto phase = static_cast<Phase>(ph);
      prof.issue_cycles[static_cast<std::size_t>(ph)] += pc.phase_instr(phase);
      phase_dma[static_cast<std::size_t>(ph)] += pc.phase_dma_cycles(phase);
      prof.dma_bytes[static_cast<std::size_t>(ph)] += pc.phase_dma_bytes(phase);
    }
    for (int t = 0; t < tasklets_per_pool_; ++t) {
      const int slot = p * tasklets_per_pool_ + t;
      if (slot < kMaxTasklets) {
        prof.tasklet_instr[static_cast<std::size_t>(slot)] =
            pc.tasklet_instr(t);
      }
    }
    for (int b = 0; b < kDmaHistBuckets; ++b) {
      prof.dma_hist[static_cast<std::size_t>(b)] += pc.dma_hist(b);
    }
    max_pool_dma = std::max(max_pool_dma, pc.critical_dma_cycles());
  }
  prof.mram_contention_cycles = s.dma_cycles_total - max_pool_dma;

  // Exact attribution (DESIGN.md §12). The pipeline retires at most one
  // instruction per cycle, so s.instructions busy cycles are attributed to
  // their phases directly; of the remaining stall cycles, DMA can account
  // for at most its own total.
  const std::uint64_t stall = s.cycles - s.instructions;  // cycles >= instr
  const std::uint64_t dma_stall = std::min(s.dma_cycles_total, stall);

  // Largest-remainder split of dma_stall proportional to each phase's DMA
  // cycles: quotas floor, then the phases with the largest remainders (ties
  // to the lower index) absorb the leftover — integer-exact and
  // deterministic.
  if (dma_stall > 0) {
    const std::uint64_t total_dma = s.dma_cycles_total;  // > 0 here
    std::uint64_t assigned = 0;
    std::array<std::uint64_t, kPhaseCount> remainder{};
    for (int ph = 0; ph < kPhaseCount; ++ph) {
      const auto i = static_cast<std::size_t>(ph);
      // 128-bit-safe: dma_stall and phase_dma are both bounded by the launch
      // cycle count; the product fits unsigned __int128.
      const unsigned __int128 num =
          static_cast<unsigned __int128>(dma_stall) * phase_dma[i];
      prof.dma_stall_cycles[i] = static_cast<std::uint64_t>(num / total_dma);
      remainder[i] = static_cast<std::uint64_t>(num % total_dma);
      assigned += prof.dma_stall_cycles[i];
    }
    std::uint64_t leftover = dma_stall - assigned;
    while (leftover > 0) {
      int best = 0;
      for (int ph = 1; ph < kPhaseCount; ++ph) {
        if (remainder[static_cast<std::size_t>(ph)] >
            remainder[static_cast<std::size_t>(best)]) {
          best = ph;
        }
      }
      prof.dma_stall_cycles[static_cast<std::size_t>(best)] += 1;
      remainder[static_cast<std::size_t>(best)] = 0;
      --leftover;
    }
  }

  prof.reentry_stall_cycles = stall - dma_stall;
  prof.bottleneck = classify_bottleneck(s.instructions, dma_stall,
                                        prof.reentry_stall_cycles);
  return prof;
}

}  // namespace pimnw::upmem
