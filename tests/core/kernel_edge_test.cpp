// Edge cases and failure injection for the DPU kernel and the MRAM/WRAM
// constraints it lives under.
#include <gtest/gtest.h>

#include "align/banded_adaptive.hpp"
#include "core/host.hpp"
#include "core/mram_layout.hpp"
#include "data/mutate.hpp"
#include "data/synthetic.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pimnw::core {
namespace {

TEST(KernelEdgeTest, BandWiderThanSequences) {
  // w much larger than m+n: the window covers the whole matrix and the
  // kernel degenerates to full DP — still bit-identical to the reference.
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 256;
  std::vector<PairInput> pairs = {{"ACGTACGT", "ACGGTACT"}};
  std::vector<PairOutput> outputs;
  (void)PimAligner(config).align_pairs(pairs, &outputs);
  const align::AlignResult ref = align::banded_adaptive(
      "ACGTACGT", "ACGGTACT", config.align.scoring,
      {.band_width = 256, .traceback = true});
  EXPECT_EQ(outputs[0].score, ref.score);
  EXPECT_EQ(outputs[0].cigar.to_string(), ref.cigar.to_string());
}

TEST(KernelEdgeTest, HugeBandExhaustsWram) {
  // 6 pools x (4 arrays x 4 B x w + windows + buffers): w = 2048 needs
  // ~ 6 x (32 KB + ...) >> 64 KB — the WRAM allocator must refuse, exactly
  // like the real toolchain would fail to link such a kernel.
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 2048;
  std::vector<PairInput> pairs = {{"ACGT", "ACGT"}};
  std::vector<PairOutput> outputs;
  EXPECT_THROW(PimAligner(config).align_pairs(pairs, &outputs), CheckError);
}

TEST(KernelEdgeTest, HugeBandFitsWithFewerPools) {
  // The same w=2048 fits if the DPU runs a single pool — the WRAM/parallel
  // capacity tradeoff of §4.2.3.
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 2048;
  config.pool.pools = 1;
  config.pool.tasklets_per_pool = 16;
  std::vector<PairInput> pairs = {{"ACGT", "ACGT"}};
  std::vector<PairOutput> outputs;
  EXPECT_NO_THROW(PimAligner(config).align_pairs(pairs, &outputs));
  EXPECT_EQ(outputs[0].score, 8);
}

TEST(KernelEdgeTest, OversizedPairRejectedGracefully) {
  // A pair whose solo BT scratch + cigar slots overflow the 64 MB bank is
  // rejected per-pair (kOversized) instead of aborting the whole batch —
  // the streaming service cannot let one bad request kill the process.
  // Pairs sharing the batch still align.
  Xoshiro256 rng(41);
  const std::string a = data::random_dna(200'000, rng);
  const std::string b = data::random_dna(200'000, rng);
  // Default band: the 200k pair's lone-pair BT scratch is ~160 MB, far over
  // the bank, while the tiny pairs run normally.
  PimAlignerConfig config;
  config.nr_ranks = 1;
  std::vector<PairInput> pairs = {{"ACGT", "ACGT"}, {a, b}, {"ACGT", "ACGT"}};
  std::vector<PairOutput> outputs;
  RunReport report;
  EXPECT_NO_THROW(report =
                      PimAligner(config).align_pairs(pairs, &outputs));
  EXPECT_EQ(report.rejected_pairs, 1u);
  EXPECT_EQ(report.total_pairs, 2u);
  EXPECT_FALSE(outputs[1].ok);
  EXPECT_EQ(outputs[1].status, PairStatus::kOversized);
  EXPECT_TRUE(outputs[0].ok);
  EXPECT_TRUE(outputs[2].ok);
  EXPECT_EQ(outputs[0].score, 8);
  EXPECT_EQ(outputs[2].score, 8);
  EXPECT_EQ(outputs[0].status, PairStatus::kOk);
}

TEST(KernelEdgeTest, ManyTinyPairsOneDpu) {
  // Hundreds of short pairs through a single DPU batch: exercises the
  // pair-table walk, pool scheduling and result slots densely.
  Xoshiro256 rng(43);
  std::vector<std::pair<std::string, std::string>> storage;
  for (int p = 0; p < 300; ++p) {
    const std::string a = data::random_dna(8 + rng.below(24), rng);
    data::ErrorModel errors;
    errors.error_rate = 0.2;
    storage.emplace_back(a, data::mutate(a, errors, rng));
  }
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : storage) pairs.push_back({a, b});
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 16;
  config.verify = true;  // cross-check every result in one sweep
  std::vector<PairOutput> outputs;
  EXPECT_NO_THROW(PimAligner(config).align_pairs(pairs, &outputs));
}

TEST(KernelEdgeTest, DeterministicAcrossRuns) {
  const data::PairDataset dataset =
      data::generate_synthetic(data::s1000_config(15, 47));
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});
  PimAlignerConfig config;
  config.nr_ranks = 2;
  config.align.band_width = 64;
  std::vector<PairOutput> first;
  std::vector<PairOutput> second;
  const RunReport r1 = PimAligner(config).align_pairs(pairs, &first);
  const RunReport r2 = PimAligner(config).align_pairs(pairs, &second);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t p = 0; p < first.size(); ++p) {
    EXPECT_EQ(first[p].score, second[p].score);
    EXPECT_EQ(first[p].cigar, second[p].cigar);
    EXPECT_EQ(first[p].dpu_pool_cycles, second[p].dpu_pool_cycles);
  }
  EXPECT_DOUBLE_EQ(r1.makespan_seconds, r2.makespan_seconds);
}

TEST(KernelEdgeTest, AllVsAllWithTraceback) {
  // §5.3 runs score-only; an all-vs-all that needs CIGARs (align_fasta
  // --all-vs-all) enumerates the pairs through align_pairs, where each
  // sequence is shared by several pairs of one DPU.
  std::vector<std::string> seqs;
  Xoshiro256 rng(53);
  const std::string root = data::random_dna(150, rng);
  data::ErrorModel errors;
  errors.error_rate = 0.05;
  for (int s = 0; s < 5; ++s) seqs.push_back(data::mutate(root, errors, rng));
  std::vector<PairInput> pairs;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    for (std::size_t j = i + 1; j < seqs.size(); ++j) {
      pairs.push_back({seqs[i], seqs[j]});
    }
  }
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 32;
  config.align.traceback = true;
  config.verify = true;
  std::vector<PairOutput> outputs;
  EXPECT_NO_THROW(PimAligner(config).align_pairs(pairs, &outputs));
  ASSERT_EQ(outputs.size(), pairs.size());
  for (const PairOutput& output : outputs) {
    EXPECT_FALSE(output.cigar.empty());
  }
}

TEST(KernelEdgeTest, IdenticalLongSequencesAcrossWindowRefills) {
  // > kWinSlackBases bases force several sequence-window DMA refills.
  Xoshiro256 rng(59);
  const std::string s = data::random_dna(3000, rng);
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 32;
  std::vector<PairInput> pairs = {{s, s}};
  std::vector<PairOutput> outputs;
  (void)PimAligner(config).align_pairs(pairs, &outputs);
  EXPECT_EQ(outputs[0].score,
            config.align.scoring.match * static_cast<align::Score>(s.size()));
  EXPECT_EQ(outputs[0].cigar.to_string(), "3000=");
  EXPECT_GT(outputs[0].dpu_dma_bytes, 3000u / 4)
      << "windows must actually stream from MRAM";
}

// Parameterized cross-check sweep: random (seed, band) against the
// reference, covering error regimes from clean to very noisy.
struct SweepParam {
  std::uint64_t seed;
  std::int64_t band;
  double error;
};

class KernelSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(KernelSweep, MatchesReference) {
  const SweepParam param = GetParam();
  Xoshiro256 rng(param.seed);
  std::vector<std::pair<std::string, std::string>> storage;
  data::ErrorModel errors;
  errors.error_rate = param.error;
  for (int p = 0; p < 8; ++p) {
    const std::string a = data::random_dna(100 + rng.below(500), rng);
    storage.emplace_back(a, data::mutate(a, errors, rng));
  }
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : storage) pairs.push_back({a, b});
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = param.band;
  config.verify = true;  // throws on any kernel/reference divergence
  std::vector<PairOutput> outputs;
  EXPECT_NO_THROW(PimAligner(config).align_pairs(pairs, &outputs));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelSweep,
    ::testing::Values(SweepParam{101, 16, 0.02}, SweepParam{102, 16, 0.25},
                      SweepParam{103, 32, 0.1}, SweepParam{104, 48, 0.15},
                      SweepParam{105, 64, 0.05}, SweepParam{106, 128, 0.3},
                      SweepParam{107, 24, 0.08}, SweepParam{108, 96, 0.12}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_w" +
             std::to_string(info.param.band);
    });

}  // namespace
}  // namespace pimnw::core
