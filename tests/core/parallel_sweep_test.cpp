// The data-parallel DPU sweep (DESIGN.md §15): a rank launch fans its 64
// DPU plans out across the worker pool, yet every modeled result must be
// bit-identical to the serial schedule (one worker, window 1). This is the
// matrix pin — threads {1, 2, 8} x traceback on/off x multi-round session
// use — checking scores, CIGARs, modeled cycles and DMA bytes exactly, plus
// the profiler's attributed_cycles == sum_dpu_cycles reconciliation on
// every committed launch. Suite names carry "ParallelSweep" so the tsan
// preset's test filter includes them (the sweep is the most contended code
// path this repo has).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "data/phylo16s.hpp"
#include "data/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace pimnw::core {
namespace {

struct RunResult {
  RunReport report;
  std::vector<PairOutput> out;
  std::vector<LaunchRecord> launches;
};

void expect_same_outputs(const std::vector<PairOutput>& got,
                         const std::vector<PairOutput>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < got.size(); ++p) {
    EXPECT_EQ(got[p].ok, want[p].ok) << "pair " << p;
    EXPECT_EQ(got[p].status, want[p].status) << "pair " << p;
    EXPECT_EQ(got[p].score, want[p].score) << "pair " << p;
    EXPECT_EQ(got[p].cigar, want[p].cigar) << "pair " << p;
    EXPECT_EQ(got[p].dpu_pool_cycles, want[p].dpu_pool_cycles) << "pair " << p;
    EXPECT_EQ(got[p].dpu_dma_bytes, want[p].dpu_dma_bytes) << "pair " << p;
  }
}

/// Doubles compared exactly: the sweep must replay the serial commit
/// arithmetic, not approximate it.
void expect_same_report(const RunReport& got, const RunReport& want) {
  EXPECT_EQ(got.makespan_seconds, want.makespan_seconds);
  EXPECT_EQ(got.transfer_seconds, want.transfer_seconds);
  EXPECT_EQ(got.host_prep_seconds, want.host_prep_seconds);
  EXPECT_EQ(got.host_overhead_fraction, want.host_overhead_fraction);
  EXPECT_EQ(got.mean_pipeline_utilization, want.mean_pipeline_utilization);
  EXPECT_EQ(got.mean_mram_overhead, want.mean_mram_overhead);
  EXPECT_EQ(got.load_imbalance, want.load_imbalance);
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.total_pairs, want.total_pairs);
  EXPECT_EQ(got.bytes_to_dpus, want.bytes_to_dpus);
  EXPECT_EQ(got.bytes_broadcast, want.bytes_broadcast);
  EXPECT_EQ(got.bytes_from_dpus, want.bytes_from_dpus);
  EXPECT_EQ(got.total_instructions, want.total_instructions);
  EXPECT_EQ(got.total_dma_bytes, want.total_dma_bytes);
}

/// Per-launch pins: the observer stream is exact even when DPUs finish out
/// of order, and the profiler's cycle attribution reconciles on every
/// launch (attributed_cycles == sum_dpu_cycles whenever profiles rode
/// along, which the engine always does).
void expect_same_launches(const std::vector<LaunchRecord>& got,
                          const std::vector<LaunchRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].batch, want[i].batch) << "launch " << i;
    EXPECT_EQ(got[i].rank, want[i].rank) << "launch " << i;
    EXPECT_EQ(got[i].start_seconds, want[i].start_seconds) << "launch " << i;
    EXPECT_EQ(got[i].exec_end_seconds, want[i].exec_end_seconds)
        << "launch " << i;
    EXPECT_EQ(got[i].max_cycles, want[i].max_cycles) << "launch " << i;
    EXPECT_EQ(got[i].sum_dpu_cycles, want[i].sum_dpu_cycles) << "launch " << i;
    EXPECT_EQ(got[i].active_dpus, want[i].active_dpus) << "launch " << i;
    EXPECT_EQ(got[i].attributed_cycles, got[i].sum_dpu_cycles)
        << "launch " << i << " cycle attribution out of balance";
  }
}

void expect_identical(const RunResult& got, const RunResult& want) {
  expect_same_outputs(got.out, want.out);
  expect_same_report(got.report, want.report);
  expect_same_launches(got.launches, want.launches);
}

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// threads x traceback, all against the traceback-matched serial reference
// (a 1-thread pool at window 1). With 8 workers and 2 ranks of 64 DPUs the
// intra-launch sweep, the pipeline window and steal order all vary run to
// run; the modeled results must not.
TEST(ParallelSweepTest, PairsBitIdenticalAcrossThreadMatrix) {
  data::SyntheticConfig data_config = data::s10000_config(30);
  data_config.read_length = 2000;  // keep the suite fast; shape unchanged
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  auto run = [&](std::size_t threads, std::size_t window,
                 bool traceback) -> RunResult {
    ThreadPool pool(threads);
    StatsCollector stats;
    PimAlignerConfig config;
    config.nr_ranks = 2;
    config.batch_pairs = 8;  // 30 pairs -> 4 batches over 2 ranks
    config.align.traceback = traceback;
    config.batch_window = window;
    config.workers = &pool;
    config.stats = &stats;
    PimAligner aligner(config);
    RunResult r;
    r.report = aligner.align_pairs(pairs, &r.out);
    r.launches.assign(stats.launches().begin(), stats.launches().end());
    return r;
  };

  const std::size_t window = PimAlignerConfig{}.batch_window;
  for (const bool traceback : {true, false}) {
    const RunResult reference = run(1, 1, traceback);
    ASSERT_EQ(reference.report.batches, 4u);
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads) +
                   (traceback ? " traceback" : " score-only"));
      expect_identical(run(threads, window, traceback), reference);
    }
  }
}

// Session rounds: a resident database queried over several align_pairs
// rounds (with the per-round scratch reset between them) through pools of
// every size. Broadcast accounting, round boundaries and the sweep must
// compose without perturbing a single modeled number.
TEST(ParallelSweepTest, SessionRoundsBitIdenticalAcrossThreads) {
  data::Phylo16sConfig db_config;
  db_config.species = 12;
  db_config.root_length = 300;
  const std::vector<std::string> db = data::generate_16s(db_config);

  // Three rounds of distinct pair sets over the same resident database.
  std::vector<std::vector<IndexPair>> rounds(3);
  std::size_t round = 0;
  for (std::uint32_t i = 0; i < db.size(); ++i) {
    for (std::uint32_t j = i + 1; j < db.size(); ++j) {
      rounds[round % rounds.size()].push_back({i, j});
      ++round;
    }
  }

  auto run = [&](std::size_t threads, std::size_t window) -> RunResult {
    ThreadPool pool(threads);
    StatsCollector stats;
    PimAlignerConfig config;
    config.nr_ranks = 2;
    config.batch_window = window;
    config.workers = &pool;
    config.stats = &stats;
    DbSession session(db, config);
    RunResult r;
    for (const std::vector<IndexPair>& p : rounds) {
      std::vector<PairOutput> out;
      const RunReport report = session.align_pairs(p, &out);
      r.report.batches += report.batches;
      r.report.total_pairs += report.total_pairs;
      r.report.bytes_to_dpus += report.bytes_to_dpus;
      r.report.bytes_from_dpus += report.bytes_from_dpus;
      r.report.total_instructions += report.total_instructions;
      r.report.total_dma_bytes += report.total_dma_bytes;
      r.report.makespan_seconds += report.makespan_seconds;
      r.report.transfer_seconds += report.transfer_seconds;
      r.report.host_prep_seconds += report.host_prep_seconds;
      for (PairOutput& o : out) r.out.push_back(std::move(o));
    }
    r.launches.assign(stats.launches().begin(), stats.launches().end());
    return r;
  };

  const RunResult reference = run(1, 1);
  ASSERT_GT(reference.launches.size(), 0u);
  const std::size_t window = PimAlignerConfig{}.batch_window;
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const RunResult got = run(threads, window);
    expect_same_outputs(got.out, reference.out);
    expect_same_launches(got.launches, reference.launches);
    EXPECT_EQ(got.report.batches, reference.report.batches);
    EXPECT_EQ(got.report.total_pairs, reference.report.total_pairs);
    EXPECT_EQ(got.report.bytes_to_dpus, reference.report.bytes_to_dpus);
    EXPECT_EQ(got.report.bytes_from_dpus, reference.report.bytes_from_dpus);
    EXPECT_EQ(got.report.total_instructions,
              reference.report.total_instructions);
    EXPECT_EQ(got.report.total_dma_bytes, reference.report.total_dma_bytes);
    EXPECT_EQ(got.report.makespan_seconds, reference.report.makespan_seconds);
    EXPECT_EQ(got.report.transfer_seconds, reference.report.transfer_seconds);
    EXPECT_EQ(got.report.host_prep_seconds,
              reference.report.host_prep_seconds);
  }
}

}  // namespace
}  // namespace pimnw::core
