// End-to-end tests of the DPU kernel through the full PiM stack
// (serialize -> transfer -> launch -> collect) against the executable
// specification align::banded_adaptive: scores and CIGARs must be
// bit-identical (DESIGN.md §5).
#include <gtest/gtest.h>

#include "align/banded_adaptive.hpp"
#include "align/nw_full.hpp"
#include "align/verify.hpp"
#include "core/host.hpp"
#include "core/session.hpp"
#include "data/mutate.hpp"
#include "data/pacbio.hpp"
#include "data/phylo16s.hpp"
#include "data/synthetic.hpp"
#include "util/rng.hpp"

namespace pimnw::core {
namespace {

PimAlignerConfig small_config() {
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 32;
  return config;
}

std::vector<PairInput> views_of(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::vector<PairInput> views;
  views.reserve(pairs.size());
  for (const auto& [a, b] : pairs) views.push_back({a, b});
  return views;
}

void expect_matches_reference(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const PimAlignerConfig& config) {
  PimAligner aligner(config);
  std::vector<PairOutput> outputs;
  const auto views = views_of(pairs);
  (void)aligner.align_pairs(views, &outputs);
  ASSERT_EQ(outputs.size(), pairs.size());

  for (std::size_t p = 0; p < pairs.size(); ++p) {
    align::BandedAdaptiveOptions ref_options;
    ref_options.band_width = config.align.band_width;
    ref_options.traceback = config.align.traceback;
    const align::AlignResult ref = align::banded_adaptive(
        pairs[p].first, pairs[p].second, config.align.scoring, ref_options);
    ASSERT_EQ(outputs[p].ok, ref.reached_end) << "pair " << p;
    if (!ref.reached_end) continue;
    EXPECT_EQ(outputs[p].score, ref.score) << "pair " << p;
    if (config.align.traceback) {
      EXPECT_EQ(outputs[p].cigar.to_string(), ref.cigar.to_string())
          << "pair " << p;
      EXPECT_EQ(align::check_alignment(
                    {ref.score, true, outputs[p].cigar, 0},
                    pairs[p].first, pairs[p].second, config.align.scoring),
                "")
          << "pair " << p;
    }
  }
}

TEST(KernelTest, SinglePairIdenticalSequences) {
  expect_matches_reference({{"ACGTACGTACGTACGT", "ACGTACGTACGTACGT"}},
                           small_config());
}

TEST(KernelTest, SinglePairWithErrors) {
  Xoshiro256 rng(1);
  const std::string a = data::random_dna(300, rng);
  data::ErrorModel errors;
  errors.error_rate = 0.1;
  const std::string b = data::mutate(a, errors, rng);
  expect_matches_reference({{a, b}}, small_config());
}

TEST(KernelTest, TinySequences) {
  expect_matches_reference(
      {{"A", "A"}, {"A", "C"}, {"AC", "A"}, {"A", "ACGT"}, {"ACGT", "A"}},
      small_config());
}

TEST(KernelTest, ManyPairsAcrossDpus) {
  Xoshiro256 rng(2);
  std::vector<std::pair<std::string, std::string>> pairs;
  data::ErrorModel errors;
  errors.error_rate = 0.08;
  for (int p = 0; p < 40; ++p) {
    const std::string a = data::random_dna(100 + rng.below(400), rng);
    pairs.emplace_back(a, data::mutate(a, errors, rng));
  }
  expect_matches_reference(pairs, small_config());
}

TEST(KernelTest, MultipleRanksAndBatches) {
  Xoshiro256 rng(3);
  std::vector<std::pair<std::string, std::string>> pairs;
  data::ErrorModel errors;
  errors.error_rate = 0.05;
  for (int p = 0; p < 30; ++p) {
    const std::string a = data::random_dna(150, rng);
    pairs.emplace_back(a, data::mutate(a, errors, rng));
  }
  PimAlignerConfig config = small_config();
  config.nr_ranks = 2;
  config.batch_pairs = 7;  // force several batches and rank reuse
  expect_matches_reference(pairs, config);
}

TEST(KernelTest, WiderBandsMatchToo) {
  Xoshiro256 rng(4);
  std::vector<std::pair<std::string, std::string>> pairs;
  data::ErrorModel errors;
  errors.error_rate = 0.12;
  for (int p = 0; p < 6; ++p) {
    const std::string a = data::random_dna(600, rng);
    pairs.emplace_back(a, data::mutate(a, errors, rng));
  }
  for (std::int64_t band : {16, 64, 128}) {
    PimAlignerConfig config = small_config();
    config.align.band_width = band;
    expect_matches_reference(pairs, config);
  }
}

TEST(KernelTest, LongGapsExerciseWindowSteering) {
  // Gaps near w/2 stress the steering and the BT streaming.
  Xoshiro256 rng(5);
  std::vector<std::pair<std::string, std::string>> pairs;
  data::ErrorModel errors;
  errors.error_rate = 0.05;
  errors.long_gap_rate = 2e-3;
  errors.long_gap_min = 10;
  errors.long_gap_max = 60;
  for (int p = 0; p < 10; ++p) {
    const std::string a = data::random_dna(800, rng);
    pairs.emplace_back(a, data::mutate(a, errors, rng));
  }
  PimAlignerConfig config = small_config();
  config.align.band_width = 64;
  expect_matches_reference(pairs, config);
}

TEST(KernelTest, ScoreOnlyMode) {
  Xoshiro256 rng(6);
  std::vector<std::pair<std::string, std::string>> pairs;
  data::ErrorModel errors;
  errors.error_rate = 0.1;
  for (int p = 0; p < 12; ++p) {
    const std::string a = data::random_dna(200 + rng.below(200), rng);
    pairs.emplace_back(a, data::mutate(a, errors, rng));
  }
  PimAlignerConfig config = small_config();
  config.align.traceback = false;
  PimAligner aligner(config);
  std::vector<PairOutput> outputs;
  (void)aligner.align_pairs(views_of(pairs), &outputs);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const align::AlignResult ref = align::banded_adaptive(
        pairs[p].first, pairs[p].second, config.align.scoring,
        {.band_width = config.align.band_width, .traceback = false});
    EXPECT_EQ(outputs[p].score, ref.score) << "pair " << p;
    EXPECT_TRUE(outputs[p].cigar.empty());
  }
}

TEST(KernelTest, PureCAndAsmVariantsGiveSameResults) {
  // Table 7's variants differ only in speed, never in results.
  Xoshiro256 rng(7);
  const std::string a = data::random_dna(500, rng);
  data::ErrorModel errors;
  errors.error_rate = 0.1;
  const std::string b = data::mutate(a, errors, rng);
  std::vector<PairInput> pairs = {{a, b}};

  PimAlignerConfig config = small_config();
  config.variant = KernelVariant::kPureC;
  std::vector<PairOutput> pure_c;
  const RunReport pure_report =
      PimAligner(config).align_pairs(pairs, &pure_c);

  config.variant = KernelVariant::kAsm;
  std::vector<PairOutput> asm_out;
  const RunReport asm_report =
      PimAligner(config).align_pairs(pairs, &asm_out);

  EXPECT_EQ(pure_c[0].score, asm_out[0].score);
  EXPECT_EQ(pure_c[0].cigar.to_string(), asm_out[0].cigar.to_string());
  // ... but the pure-C kernel is modeled slower (Table 7: 1.36–1.69x).
  EXPECT_GT(pure_c[0].dpu_pool_cycles, asm_out[0].dpu_pool_cycles);
  const double ratio = static_cast<double>(pure_c[0].dpu_pool_cycles) /
                       static_cast<double>(asm_out[0].dpu_pool_cycles);
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 1.8);
  EXPECT_GT(pure_report.makespan_seconds, asm_report.makespan_seconds);
}

TEST(KernelTest, PerPairCostsArePopulated) {
  Xoshiro256 rng(8);
  const std::string a = data::random_dna(400, rng);
  data::ErrorModel errors;
  errors.error_rate = 0.05;
  const std::string b = data::mutate(a, errors, rng);
  std::vector<PairInput> pairs = {{a, b}};
  std::vector<PairOutput> outputs;
  (void)PimAligner(small_config()).align_pairs(pairs, &outputs);
  EXPECT_GT(outputs[0].dpu_pool_cycles, 0u);
  EXPECT_GT(outputs[0].dpu_dma_bytes, 0u);
  // Sanity: cycles should be on the order of diagonals x per-diag cost.
  const std::uint64_t diags = a.size() + b.size() + 1;
  EXPECT_GT(outputs[0].dpu_pool_cycles, diags * 10);
  EXPECT_LT(outputs[0].dpu_pool_cycles, diags * 10'000);
}

TEST(KernelTest, PacbioLikeSetsRoundTrip) {
  data::PacbioConfig config;
  config.set_count = 2;
  config.region_min = 400;
  config.region_max = 700;
  config.reads_min = 3;
  config.reads_max = 4;
  config.seed = 9;
  const data::SetDataset dataset = data::generate_pacbio(config);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& set : dataset.sets) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        pairs.emplace_back(set[i], set[j]);
      }
    }
  }
  PimAlignerConfig aligner_config = small_config();
  aligner_config.align.band_width = 64;
  expect_matches_reference(pairs, aligner_config);
}

TEST(KernelTest, RunReportIsPlausible) {
  // Utilisation only approaches the paper's 95-99% when every pool of every
  // DPU has work — use a saturating batch (>= 64 DPUs x 6 pools pairs).
  data::SyntheticConfig data_config = data::s1000_config(800, 11);
  data_config.read_length = 120;
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  PimAlignerConfig config = small_config();
  PimAligner aligner(config);
  std::vector<PairOutput> outputs;
  const RunReport report =
      aligner.align_pairs(views_of(dataset.pairs), &outputs);
  EXPECT_EQ(report.total_pairs, 800u);
  EXPECT_GT(report.makespan_seconds, 0.0);
  EXPECT_GT(report.mean_pipeline_utilization, 0.5);
  EXPECT_LE(report.mean_pipeline_utilization, 1.0);
  EXPECT_GE(report.mean_mram_overhead, 0.0);
  EXPECT_LT(report.mean_mram_overhead, 0.3);
  EXPECT_GT(report.bytes_to_dpus, 0u);
  EXPECT_GT(report.bytes_from_dpus, 0u);
  EXPECT_GE(report.load_imbalance, 1.0);
}

std::vector<IndexPair> all_index_pairs(std::size_t count) {
  std::vector<IndexPair> pairs;
  for (std::uint32_t i = 0; i < count; ++i) {
    for (std::uint32_t j = i + 1; j < count; ++j) pairs.push_back({i, j});
  }
  return pairs;
}

TEST(AllVsAllTest, MatchesReferenceScores) {
  data::Phylo16sConfig config;
  config.species = 10;
  config.root_length = 200;
  config.seed = 12;
  const std::vector<std::string> seqs = data::generate_16s(config);

  PimAlignerConfig aligner_config;
  aligner_config.nr_ranks = 1;
  aligner_config.align.band_width = 32;
  DbSession session(seqs, aligner_config);
  const std::vector<IndexPair> pairs = all_index_pairs(seqs.size());
  std::vector<PairOutput> outputs;
  const RunReport report = session.align_pairs(pairs, &outputs);
  ASSERT_EQ(outputs.size(), seqs.size() * (seqs.size() - 1) / 2);
  EXPECT_EQ(report.total_pairs, outputs.size());

  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::string& a = seqs[pairs[p].a];
    const std::string& b = seqs[pairs[p].b];
    const align::AlignResult ref = align::banded_adaptive(
        a, b, aligner_config.align.scoring,
        {.band_width = 32, .traceback = false});
    EXPECT_EQ(outputs[p].score, ref.score)
        << "pair " << pairs[p].a << "," << pairs[p].b;
    EXPECT_GT(outputs[p].dpu_pool_cycles, 0u);
  }
}

TEST(AllVsAllTest, BroadcastBytesScaleWithDpus) {
  data::Phylo16sConfig config;
  config.species = 6;
  config.root_length = 100;
  const std::vector<std::string> seqs = data::generate_16s(config);
  PimAlignerConfig a1;
  a1.nr_ranks = 1;
  a1.align.band_width = 16;
  PimAlignerConfig a2 = a1;
  a2.nr_ranks = 2;
  const std::vector<IndexPair> pairs = all_index_pairs(seqs.size());
  std::vector<PairOutput> s1, s2;
  const RunReport r1 = DbSession(seqs, a1).align_pairs(pairs, &s1);
  const RunReport r2 = DbSession(seqs, a2).align_pairs(pairs, &s2);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t p = 0; p < s1.size(); ++p) {
    EXPECT_EQ(s1[p].score, s2[p].score);  // results independent of system size
  }
  EXPECT_GT(r1.bytes_broadcast, 0u);
  EXPECT_EQ(r2.bytes_broadcast, 2 * r1.bytes_broadcast);
}

}  // namespace
}  // namespace pimnw::core
