#include "core/host.hpp"

#include <algorithm>
#include <memory>
#include <string_view>

#include "core/engine.hpp"
#include "core/load_balance.hpp"
#include "core/mram_layout.hpp"
#include "core/pim_kernel.hpp"
#include "dna/alphabet.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace pimnw::core {
namespace {

/// Verify-mode cross-check: the DPU result must be bit-identical to the
/// kernel's executable host specification (align::banded_adaptive for NW,
/// align::wfa_align for WFA — PimKernel::host_reference).
void verify_against_reference(const PairOutput& output, std::string_view a,
                              std::string_view b, const PimKernel& kernel,
                              const AlignConfig& config) {
  const align::AlignResult ref = kernel.host_reference(a, b, config);
  PIMNW_CHECK_MSG(output.ok == ref.reached_end,
                  "verify: reachability mismatch vs reference");
  if (!ref.reached_end) return;
  PIMNW_CHECK_MSG(output.score == ref.score,
                  "verify: DPU score " << output.score
                                       << " != reference " << ref.score);
  if (config.traceback) {
    PIMNW_CHECK_MSG(output.cigar == ref.cigar,
                    "verify: DPU cigar differs from reference");
  }
}

bool all_acgt(std::string_view seq) {
  return dna::first_non_acgt(seq) == std::string_view::npos;
}

/// Admission check: the status a pair resolves with before dispatch, or
/// PairStatus::kOk to dispatch it, so that one bad pair never aborts the
/// whole run and a service front door cannot crash on one bad request.
///  * kInvalidInput: `acgt` is false, a base of the pair lies outside
///    A/C/G/T, which the 2-bit code cannot hold.
///  * kOversized: the pair's lone-pair MRAM image already exceeds the bank,
///    so no batch composition can align it. Genuinely oversized *batches*
///    (too many pairs per DPU) still fail the batch-level check.
PairStatus admit_pair(const PimKernel& kernel, const PimAlignerConfig& config,
                      std::size_t index, std::size_t len_a, std::size_t len_b,
                      bool acgt) {
  // Rate-limited: a service run fed a bad workload can reject thousands of
  // pairs per second, and one WARN each would drown the log.
  if (!acgt) {
    PIMNW_WARN_RATELIMITED(
        /*rate_per_second=*/5.0, /*burst=*/10.0,
        "rejecting pair with a non-ACGT base: pair=" << index);
    return PairStatus::kInvalidInput;
  }
  if (kernel.pair_admissible(len_a, len_b, config.align, config.pool) &&
      single_pair_image_bytes(len_a, len_b, kernel, config.align,
                              config.pool) <= upmem::kMramBytes) {
    return PairStatus::kOk;
  }
  PIMNW_WARN_RATELIMITED(
      /*rate_per_second=*/5.0, /*burst=*/10.0,
      "rejecting oversized pair: pair=" << index << " len_a=" << len_a
                                        << " len_b=" << len_b);
  return PairStatus::kOversized;
}

}  // namespace

PimAligner::PimAligner(PimAlignerConfig config) : config_(std::move(config)) {
  PIMNW_CHECK_MSG(config_.nr_ranks >= 1, "need at least one rank");
  PIMNW_CHECK_MSG(config_.align.band_width >= 2, "band width must be >= 2");
  PIMNW_CHECK_MSG(config_.batch_window >= 1,
                  "batch window must be at least 1");
}

/// The single batched run path. Both public modes reduce to:
/// slice the work into rank-batches (spec.assign), expand each DPU bin's
/// units into a serialized plan (spec.emit), hand the batches to the
/// execution engine, and re-check the flat output in verify mode
/// (spec.pair_of). An empty run never touches the engine, so every ratio
/// field of the report stays exactly 0 (no 0/0 NaN).
RunReport PimAligner::run_batches(const RunSpec& spec,
                                  std::vector<PairOutput>* out) {
  RunReport report;
  report.total_pairs = spec.total_pairs;
  if (spec.n_batches == 0 || spec.total_pairs == 0) return report;

  ExecEngine engine(config_, host_cost_);

  auto build_batch = [&spec, this](std::size_t batch_index) -> PreparedBatch {
    Assignment assignment = spec.assign(batch_index);
    PIMNW_CHECK_MSG(assignment.bins.size() ==
                        static_cast<std::size_t>(upmem::kDpusPerRank),
                    "a batch assignment must cover one bin per DPU");
    PreparedBatch prepared;
    prepared.plans.resize(upmem::kDpusPerRank);
    for (int d = 0; d < upmem::kDpusPerRank; ++d) {
      const auto& bin = assignment.bins[static_cast<std::size_t>(d)];
      if (bin.empty()) continue;
      DpuPlan& plan = prepared.plans[static_cast<std::size_t>(d)];
      SeqInterner interner;
      for (const WorkItem& item : bin) {
        spec.emit(item, plan, interner);
      }
      finalize_plan(plan, interner, config_);
    }
    prepared.imbalance = assignment.imbalance();
    for (std::uint64_t load : assignment.bin_load) {
      prepared.total_workload += load;
    }
    return prepared;
  };

  engine.run(spec.n_batches, build_batch, out);
  report = engine.finish();
  report.total_pairs = spec.total_pairs;

  if (config_.verify && out != nullptr && spec.pair_of) {
    for (std::size_t p = 0; p < out->size(); ++p) {
      // Pairs rejected at admission were never dispatched; there is nothing
      // to compare.
      const PairStatus status = (*out)[p].status;
      if (status == PairStatus::kOversized ||
          status == PairStatus::kInvalidInput) {
        continue;
      }
      const PairInput pair = spec.pair_of(static_cast<std::uint32_t>(p));
      verify_against_reference((*out)[p], pair.a, pair.b,
                               kernel_for(config_), config_.align);
    }
  }
  return report;
}

RunReport PimAligner::align_pairs(std::span<const PairInput> pairs,
                                  std::vector<PairOutput>* out) {
  if (out != nullptr) {
    out->assign(pairs.size(), PairOutput{});
  }

  const PimKernel& kernel = kernel_for(config_);
  std::vector<std::uint32_t> accepted;
  accepted.reserve(pairs.size());
  std::uint64_t rejected = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const PairStatus status =
        admit_pair(kernel, config_, p, pairs[p].a.size(), pairs[p].b.size(),
                   all_acgt(pairs[p].a) && all_acgt(pairs[p].b));
    if (status != PairStatus::kOk) {
      ++rejected;
      if (out != nullptr) (*out)[p].status = status;
      continue;
    }
    accepted.push_back(static_cast<std::uint32_t>(p));
  }

  const std::size_t batch_pairs =
      rank_batch_pairs(config_.batch_pairs, config_.pool);

  RunSpec spec;
  spec.total_pairs = accepted.size();
  spec.n_batches = (accepted.size() + batch_pairs - 1) / batch_pairs;
  // Workload-model-driven LPT across the DPUs of the rank (§4.1.2).
  spec.assign = [this, pairs, &accepted, batch_pairs](std::size_t batch_index) {
    const std::size_t batch_start = batch_index * batch_pairs;
    const std::size_t batch_end =
        std::min(accepted.size(), batch_start + batch_pairs);
    std::vector<WorkItem> items;
    items.reserve(batch_end - batch_start);
    for (std::size_t k = batch_start; k < batch_end; ++k) {
      const std::uint32_t p = accepted[k];
      items.push_back(
          {p,
           pair_workload(pairs[p].a.size(), pairs[p].b.size(),
                         static_cast<std::uint64_t>(config_.align.band_width))});
    }
    return lpt_assign(std::move(items), upmem::kDpusPerRank);
  };
  spec.emit = [pairs](const WorkItem& item, DpuPlan& plan,
                      SeqInterner& interner) {
    const PairInput& pair = pairs[item.id];
    plan.batch.pairs.push_back(
        {interner.intern(pair.a), interner.intern(pair.b), item.id});
  };
  spec.pair_of = [pairs](std::uint32_t id) { return pairs[id]; };
  RunReport report = run_batches(spec, out);
  report.rejected_pairs = rejected;
  return report;
}

RunReport PimAligner::align_sets(
    std::span<const std::vector<std::string>> sets,
    std::vector<std::vector<PairOutput>>* out) {
  // Flatten: global id per pair, remembering where it came from. Each pair
  // is admitted on its own, as align_pairs does, from one scan of each
  // sequence; a rejected one stays out of its set's workload and DPU plan.
  struct FlatPair {
    std::uint32_t set;
    std::string_view a;
    std::string_view b;
    PairStatus admission;  // kOk: dispatched
  };
  const PimKernel& kernel = kernel_for(config_);
  std::vector<FlatPair> flat;
  std::vector<std::uint64_t> set_workload(sets.size(), 0);
  std::vector<std::size_t> set_first_pair(sets.size(), 0);
  std::uint64_t rejected = 0;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    set_first_pair[s] = flat.size();
    const auto& set = sets[s];
    std::vector<bool> acgt(set.size());
    for (std::size_t i = 0; i < set.size(); ++i) acgt[i] = all_acgt(set[i]);
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        const PairStatus admission =
            admit_pair(kernel, config_, flat.size(), set[i].size(),
                       set[j].size(), acgt[i] && acgt[j]);
        flat.push_back({static_cast<std::uint32_t>(s), set[i], set[j],
                        admission});
        if (admission != PairStatus::kOk) {
          ++rejected;
          continue;
        }
        set_workload[s] += pair_workload(
            set[i].size(), set[j].size(),
            static_cast<std::uint64_t>(config_.align.band_width));
      }
    }
  }

  if (out != nullptr) {
    out->resize(sets.size());
    for (std::size_t s = 0; s < sets.size(); ++s) {
      const std::size_t k = sets[s].size();
      (*out)[s].assign(k * (k - 1) / 2, PairOutput{});
    }
  }
  std::vector<PairOutput> flat_out(flat.size());
  for (std::size_t p = 0; p < flat.size(); ++p) {
    if (flat[p].admission != PairStatus::kOk) {
      flat_out[p].status = flat[p].admission;
    }
  }

  // Batch granularity: whole sets, several per DPU of a rank, LPT over the
  // sets' summed workloads (§5.4: "the distribution of sets to the DPUs
  // follows the systematic approach of load balancing described in 4.1").
  const std::size_t batch_sets = std::max<std::size_t>(
      upmem::kDpusPerRank,
      config_.batch_pairs != 0
          ? config_.batch_pairs
          : static_cast<std::size_t>(upmem::kDpusPerRank) * 2);

  RunSpec spec;
  spec.total_pairs = flat.size() - rejected;
  spec.n_batches = (sets.size() + batch_sets - 1) / batch_sets;
  spec.assign = [&set_workload, &sets, batch_sets](std::size_t batch_index) {
    const std::size_t batch_start = batch_index * batch_sets;
    const std::size_t batch_end =
        std::min(sets.size(), batch_start + batch_sets);
    std::vector<WorkItem> items;
    for (std::size_t s = batch_start; s < batch_end; ++s) {
      items.push_back({static_cast<std::uint32_t>(s), set_workload[s]});
    }
    return lpt_assign(std::move(items), upmem::kDpusPerRank);
  };
  spec.emit = [sets, &set_first_pair, &flat](const WorkItem& item,
                                             DpuPlan& plan,
                                             SeqInterner& interner) {
    const std::size_t s = item.id;
    const auto& set = sets[s];
    std::size_t id = set_first_pair[s];
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j, ++id) {
        if (flat[id].admission != PairStatus::kOk) continue;
        plan.batch.pairs.push_back({interner.intern(set[i]),
                                    interner.intern(set[j]),
                                    static_cast<std::uint32_t>(id)});
      }
    }
  };
  spec.pair_of = [&flat](std::uint32_t id) {
    return PairInput{flat[id].a, flat[id].b};
  };
  RunReport report = run_batches(spec, &flat_out);
  report.rejected_pairs = rejected;

  if (out != nullptr) {
    for (std::size_t p = 0; p < flat.size(); ++p) {
      const std::uint32_t s = flat[p].set;
      (*out)[s][p - set_first_pair[s]] = std::move(flat_out[p]);
    }
  }
  return report;
}

}  // namespace pimnw::core
