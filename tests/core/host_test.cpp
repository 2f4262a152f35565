// Host orchestrator features beyond the kernel itself: set-level dispatch,
// verify mode, batching behaviour, report bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "align/banded_adaptive.hpp"
#include "core/host.hpp"
#include "data/pacbio.hpp"
#include "data/synthetic.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pimnw::core {
namespace {

data::SetDataset small_sets(std::size_t count, std::uint64_t seed) {
  data::PacbioConfig config;
  config.set_count = count;
  config.region_min = 300;
  config.region_max = 500;
  config.reads_min = 3;
  config.reads_max = 5;
  config.seed = seed;
  return data::generate_pacbio(config);
}

TEST(AlignSetsTest, MatchesPairwiseReference) {
  const data::SetDataset dataset = small_sets(3, 21);
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 64;

  PimAligner aligner(config);
  std::vector<std::vector<PairOutput>> outputs;
  const RunReport report = aligner.align_sets(dataset.sets, &outputs);

  ASSERT_EQ(outputs.size(), dataset.sets.size());
  EXPECT_EQ(report.total_pairs, dataset.total_pairs());
  for (std::size_t s = 0; s < dataset.sets.size(); ++s) {
    const auto& set = dataset.sets[s];
    ASSERT_EQ(outputs[s].size(), set.size() * (set.size() - 1) / 2);
    std::size_t local = 0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j, ++local) {
        const align::AlignResult ref = align::banded_adaptive(
            set[i], set[j], config.align.scoring,
            {.band_width = 64, .traceback = true});
        ASSERT_EQ(outputs[s][local].ok, ref.reached_end)
            << "set " << s << " pair " << local;
        if (!ref.reached_end) continue;
        EXPECT_EQ(outputs[s][local].score, ref.score);
        EXPECT_EQ(outputs[s][local].cigar.to_string(),
                  ref.cigar.to_string());
      }
    }
  }
}

TEST(AlignSetsTest, SharedReadsTransferredOncePerSet) {
  // Pair-level dispatch scatters a set's pairs over DPUs, so each read
  // crosses the bus ~(k-1) times; set-level dispatch moves it once.
  const data::SetDataset dataset = small_sets(4, 22);
  std::vector<PairInput> flat;
  for (const auto& set : dataset.sets) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        flat.push_back({set[i], set[j]});
      }
    }
  }
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 32;

  std::vector<std::vector<PairOutput>> set_out;
  const RunReport by_sets =
      PimAligner(config).align_sets(dataset.sets, &set_out);
  std::vector<PairOutput> pair_out;
  const RunReport by_pairs = PimAligner(config).align_pairs(flat, &pair_out);

  EXPECT_LT(by_sets.bytes_to_dpus, by_pairs.bytes_to_dpus);
  // Same results either way (flat enumeration matches set-major order).
  std::size_t p = 0;
  for (std::size_t s = 0; s < set_out.size(); ++s) {
    for (const PairOutput& output : set_out[s]) {
      EXPECT_EQ(output.score, pair_out[p++].score);
    }
  }
}

TEST(AlignSetsTest, EmptyAndTrivialSets) {
  PimAlignerConfig config;
  config.nr_ranks = 1;
  PimAligner aligner(config);
  std::vector<std::vector<PairOutput>> outputs;

  const std::vector<std::vector<std::string>> empty;
  EXPECT_EQ(aligner.align_sets(empty, &outputs).total_pairs, 0u);

  // A single-read set has no pairs.
  const std::vector<std::vector<std::string>> singleton = {{"ACGT"}};
  const RunReport report = aligner.align_sets(singleton, &outputs);
  EXPECT_EQ(report.total_pairs, 0u);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(outputs[0].empty());
}

TEST(AlignSetsTest, OversizedPairResolvesAlone) {
  // A set whose two 100 kb reads make a pair over the 64 MB bank (its lone-
  // pair BT scratch alone is ~82 MB at the default band): that pair resolves
  // kOversized, as align_pairs resolves it, and the call goes on. The
  // set's other pairs, each long read against a short one, fit the bank
  // together and still align, as does the other set.
  Xoshiro256 rng(45);
  const std::string long_a = data::random_dna(100'000, rng);
  const std::string long_b = data::random_dna(100'000, rng);
  const std::vector<std::vector<std::string>> sets = {
      {"ACGTACGTAC", "ACGTACGAAC", "ACGAACGTAC"},
      {long_a, long_b, "ACGTACGTAC"},
  };
  PimAlignerConfig config;
  config.nr_ranks = 1;
  std::vector<std::vector<PairOutput>> outputs;
  RunReport report;
  ASSERT_NO_THROW(report = PimAligner(config).align_sets(sets, &outputs));

  std::vector<PairInput> flat;
  for (const auto& set : sets) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        flat.push_back({set[i], set[j]});
      }
    }
  }
  std::vector<PairOutput> pair_out;
  const RunReport by_pairs = PimAligner(config).align_pairs(flat, &pair_out);
  EXPECT_EQ(report.rejected_pairs, 1u);
  EXPECT_EQ(report.rejected_pairs, by_pairs.rejected_pairs);
  EXPECT_EQ(report.total_pairs, by_pairs.total_pairs);
  ASSERT_EQ(outputs.size(), sets.size());
  ASSERT_EQ(outputs[1].size(), 3u);
  EXPECT_EQ(outputs[1][0].status, PairStatus::kOversized);  // long x long
  std::size_t p = 0;
  for (std::size_t s = 0; s < outputs.size(); ++s) {
    for (const PairOutput& output : outputs[s]) {
      const PairOutput& want = pair_out[p++];
      EXPECT_EQ(output.status, want.status) << "set " << s << " pair " << p;
      EXPECT_EQ(output.ok, want.ok) << "set " << s << " pair " << p;
      EXPECT_EQ(output.score, want.score) << "set " << s << " pair " << p;
      EXPECT_EQ(output.cigar.to_string(), want.cigar.to_string())
          << "set " << s << " pair " << p;
    }
  }
  for (const PairOutput& output : outputs[0]) EXPECT_TRUE(output.ok);
}

/// Expects `got` to hold `want`'s outputs, field for field.
void expect_same_output(const PairOutput& got, const PairOutput& want,
                        const std::string& tag) {
  EXPECT_EQ(got.status, want.status) << tag;
  EXPECT_EQ(got.ok, want.ok) << tag;
  EXPECT_EQ(got.score, want.score) << tag;
  EXPECT_EQ(got.cigar.to_string(), want.cigar.to_string()) << tag;
  EXPECT_EQ(got.dpu_pool_cycles, want.dpu_pool_cycles) << tag;
  EXPECT_EQ(got.dpu_dma_bytes, want.dpu_dma_bytes) << tag;
}

TEST(AlignSetsTest, NonAcgtReadResolvesItsPairs) {
  // A read with an N: each of its pairs resolves kInvalidInput before
  // dispatch, and every other pair, in its set and in the other set, aligns
  // as it does in a call without the read.
  const std::vector<std::string> clean_set = {"ACGTACGTAC", "ACGTACGAAC",
                                              "ACGAACGTAC"};
  const std::vector<std::vector<std::string>> sets = {
      clean_set,
      {"ACGTACGTAC", "ACNTACGTAC", "ACGTACCTAC", "ACGAACGTAC"},
  };
  const std::vector<std::vector<std::string>> without = {
      clean_set,
      {"ACGTACGTAC", "ACGTACCTAC", "ACGAACGTAC"},
  };
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.verify = true;
  std::vector<std::vector<PairOutput>> got;
  std::vector<std::vector<PairOutput>> want;
  RunReport report;
  ASSERT_NO_THROW(report = PimAligner(config).align_sets(sets, &got));
  const RunReport clean = PimAligner(config).align_sets(without, &want);

  EXPECT_EQ(report.rejected_pairs, 3u);
  EXPECT_EQ(report.total_pairs, clean.total_pairs);
  ASSERT_EQ(got.size(), 2u);
  ASSERT_EQ(got[1].size(), 6u);
  // Set 1's pairs: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3); read 1 has the N.
  for (const std::size_t p : {0u, 3u, 4u}) {
    EXPECT_EQ(got[1][p].status, PairStatus::kInvalidInput) << "pair " << p;
    EXPECT_FALSE(got[1][p].ok) << "pair " << p;
  }
  const std::size_t kept[] = {1, 2, 5};
  for (std::size_t p = 0; p < 3; ++p) {
    expect_same_output(got[1][kept[p]], want[1][p],
                       "set 1 pair " + std::to_string(kept[p]));
    expect_same_output(got[0][p], want[0][p],
                       "set 0 pair " + std::to_string(p));
  }
}

TEST(AdmissionTest, NonAcgtPairResolvesAlone) {
  // A pair with an N in either sequence, in either case, resolves
  // kInvalidInput before dispatch (verify mode skips it), and the valid
  // pairs' outputs equal those of a call without it.
  const data::PairDataset dataset =
      data::generate_synthetic(data::s1000_config(6, 37));
  std::vector<PairInput> valid;
  for (const auto& [a, b] : dataset.pairs) valid.push_back({a, b});
  std::vector<PairInput> mixed = valid;
  mixed.insert(mixed.begin() + 2, {"ACGTNNGT", "ACGTACGA"});
  mixed.push_back({"ACGTACGA", "ACGTACGn"});
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.verify = true;
  std::vector<PairOutput> got;
  std::vector<PairOutput> want;
  RunReport report;
  ASSERT_NO_THROW(report = PimAligner(config).align_pairs(mixed, &got));
  const RunReport clean = PimAligner(config).align_pairs(valid, &want);

  EXPECT_EQ(report.rejected_pairs, 2u);
  EXPECT_EQ(report.total_pairs, clean.total_pairs);
  ASSERT_EQ(got.size(), mixed.size());
  for (const std::size_t p : {std::size_t{2}, mixed.size() - 1}) {
    EXPECT_EQ(got[p].status, PairStatus::kInvalidInput) << "pair " << p;
    EXPECT_FALSE(got[p].ok) << "pair " << p;
  }
  got.erase(got.end() - 1);
  got.erase(got.begin() + 2);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < want.size(); ++p) {
    expect_same_output(got[p], want[p], "pair " + std::to_string(p));
  }
}

TEST(VerifyModeTest, PassesOnCorrectResults) {
  const data::PairDataset dataset =
      data::generate_synthetic(data::s1000_config(10, 31));
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 64;
  config.verify = true;
  std::vector<PairOutput> outputs;
  EXPECT_NO_THROW(PimAligner(config).align_pairs(pairs, &outputs));
}

TEST(VerifyModeTest, CoversAllVsAllAndSets) {
  const data::SetDataset dataset = small_sets(2, 33);
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 64;
  config.verify = true;
  PimAligner aligner(config);
  std::vector<std::vector<PairOutput>> set_out;
  EXPECT_NO_THROW(aligner.align_sets(dataset.sets, &set_out));

  // All-vs-all of one set through align_pairs, score-only: every pair of
  // the same DPU shares the interned reads.
  const std::vector<std::string>& reads = dataset.sets[0];
  std::vector<PairInput> pairs;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    for (std::size_t j = i + 1; j < reads.size(); ++j) {
      pairs.push_back({reads[i], reads[j]});
    }
  }
  config.align.traceback = false;
  PimAligner score_only(config);
  std::vector<PairOutput> outputs;
  EXPECT_NO_THROW(score_only.align_pairs(pairs, &outputs));
}

TEST(HostReportTest, BatchCountFollowsBatchSize) {
  const data::PairDataset dataset =
      data::generate_synthetic(data::s1000_config(30, 35));
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});
  PimAlignerConfig config;
  config.nr_ranks = 2;
  config.align.band_width = 32;
  config.batch_pairs = 10;
  std::vector<PairOutput> outputs;
  const RunReport report = PimAligner(config).align_pairs(pairs, &outputs);
  EXPECT_EQ(report.batches, 3u);
  EXPECT_EQ(report.total_pairs, 30u);
  // Two ranks share three batches: makespan ~ 2 batch times, not 3.
  EXPECT_GT(report.makespan_seconds, 0.0);
}

TEST(HostReportTest, TransfersAndPrepAccounted) {
  const data::PairDataset dataset =
      data::generate_synthetic(data::s1000_config(8, 37));
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 32;
  std::vector<PairOutput> outputs;
  const RunReport report = PimAligner(config).align_pairs(pairs, &outputs);
  EXPECT_GT(report.bytes_to_dpus, 0u);
  EXPECT_GT(report.bytes_from_dpus, 0u);
  EXPECT_GT(report.transfer_seconds, 0.0);
  EXPECT_GT(report.host_prep_seconds, 0.0);
  EXPECT_GE(report.host_overhead_fraction, 0.0);
  EXPECT_LE(report.host_overhead_fraction, 1.0);
}

// ISSUE 4 regression: empty inputs must yield all-zero reports, never 0/0
// NaNs in the ratio fields, across both front doors.
TEST(HostReportTest, EmptyInputsProduceZeroedReportsNotNan) {
  PimAlignerConfig config;
  config.nr_ranks = 1;

  auto expect_clean = [](const RunReport& report) {
    EXPECT_EQ(report.total_pairs, 0u);
    EXPECT_EQ(report.batches, 0u);
    EXPECT_EQ(report.makespan_seconds, 0.0);
    EXPECT_FALSE(std::isnan(report.host_overhead_fraction));
    EXPECT_FALSE(std::isnan(report.mean_pipeline_utilization));
    EXPECT_FALSE(std::isnan(report.mean_mram_overhead));
    EXPECT_FALSE(std::isnan(report.load_imbalance));
    EXPECT_EQ(report.host_overhead_fraction, 0.0);
    EXPECT_EQ(report.mean_pipeline_utilization, 0.0);
    EXPECT_EQ(report.load_imbalance, 0.0);
  };

  std::vector<PairOutput> out{PairOutput{}};  // must come back empty
  expect_clean(PimAligner(config).align_pairs({}, &out));
  EXPECT_TRUE(out.empty());

  std::vector<std::vector<PairOutput>> set_out;
  expect_clean(PimAligner(config).align_sets({}, &set_out));
  // Singleton sets flatten to zero pairs but must still size the output.
  const std::vector<std::vector<std::string>> singletons{{"ACGT"}, {"TTGA"}};
  expect_clean(PimAligner(config).align_sets(singletons, &set_out));
  ASSERT_EQ(set_out.size(), 2u);
  EXPECT_TRUE(set_out[0].empty());
  EXPECT_TRUE(set_out[1].empty());
}

}  // namespace
}  // namespace pimnw::core
