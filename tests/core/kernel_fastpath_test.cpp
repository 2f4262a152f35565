// Equivalence of the simulator's kernel execution paths (SimPath): the
// branchy scalar reference, the portable dense sweep, and the AVX2 path
// behind kAuto must produce bit-identical scores, CIGARs, modeled pool
// cycles and DMA bytes on every input. This is the contract that lets the
// fast path exist at all — host execution strategy is invisible to every
// modeled number (DESIGN.md "Simulator fast path").
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/host.hpp"
#include "core/kernel_simd.hpp"
#include "core/session.hpp"
#include "data/mutate.hpp"
#include "data/phylo16s.hpp"
#include "data/synthetic.hpp"
#include "util/rng.hpp"

namespace pimnw::core {
namespace {

std::vector<PairOutput> run_with_path(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    PimAlignerConfig config, SimPath path) {
  config.sim_path = path;
  PimAligner aligner(config);
  std::vector<PairInput> views;
  views.reserve(pairs.size());
  for (const auto& [a, b] : pairs) views.push_back({a, b});
  std::vector<PairOutput> outputs;
  (void)aligner.align_pairs(views, &outputs);
  return outputs;
}

/// Asserts every per-pair observable is identical across the three paths.
void expect_paths_agree(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const PimAlignerConfig& config, const char* tag) {
  const auto scalar = run_with_path(pairs, config, SimPath::kScalar);
  const auto dense = run_with_path(pairs, config, SimPath::kDense);
  const auto fast = run_with_path(pairs, config, SimPath::kAuto);
  ASSERT_EQ(scalar.size(), pairs.size()) << tag;
  ASSERT_EQ(dense.size(), pairs.size()) << tag;
  ASSERT_EQ(fast.size(), pairs.size()) << tag;

  for (std::size_t p = 0; p < pairs.size(); ++p) {
    for (const auto* other : {&dense, &fast}) {
      const PairOutput& got = (*other)[p];
      EXPECT_EQ(got.ok, scalar[p].ok) << tag << " pair " << p;
      EXPECT_EQ(got.score, scalar[p].score) << tag << " pair " << p;
      EXPECT_EQ(got.cigar.to_string(), scalar[p].cigar.to_string())
          << tag << " pair " << p;
      EXPECT_EQ(got.dpu_pool_cycles, scalar[p].dpu_pool_cycles)
          << tag << " pair " << p;
      EXPECT_EQ(got.dpu_dma_bytes, scalar[p].dpu_dma_bytes)
          << tag << " pair " << p;
    }
  }
}

TEST(KernelFastPathTest, Avx2BuildMatchesRuntime) {
  // Informational: on x86-64 CI the AVX2 TU should be in the build. The
  // assertion only checks the call is safe to make.
  (void)simd::avx2_available();
}

// Also run at widths RandomizedEquivalenceSweep never draws: w = 2 and 3
// keep every diagonal inside the dense tail of the AVX2 sweep, 9 and 17
// leave one remainder lane on a full band, and at each width the
// descending walk reads the band arrays' low sentinels and the ascending
// walk their high ones.
TEST(KernelFastPathTest, HandPickedEdgeCases) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"A", "A"},
      {"A", "C"},
      {"AC", "A"},
      {"A", "ACGT"},
      {"ACGT", "A"},
      {"ACGTACGTACGTACGT", "ACGTACGTACGTACGT"},
      {"AAAAAAAAAA", "TTTTTTTTTT"},
      // Length-skewed: the band walks off one sequence (unreachable end).
      {"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT", "AC"},
      {"AC", "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"},
      // A deletion then an insertion: at every width here the band fills
      // and moves down, so both walk directions run on full bands.
      {"ACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCA",
       "ACGTTGCAACGTTCAACGTTGCAACGTTGCAAACGTTGCAACGTTGCA"},
  };
  for (const std::int64_t band : {2, 3, 8, 9, 16, 17}) {
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.align.band_width = band;
    for (const bool traceback : {true, false}) {
      config.align.traceback = traceback;
      const std::string tag = "edge w=" + std::to_string(band) +
                              (traceback ? "" : " score-only");
      expect_paths_agree(pairs, config, tag.c_str());
    }
  }
}

// The main sweep: >1000 randomized pairs across band widths, pool shapes,
// kernel variants, traceback on/off, and error rates high enough to make
// some pairs unreachable within their band.
TEST(KernelFastPathTest, RandomizedEquivalenceSweep) {
  Xoshiro256 rng(20260805);
  std::size_t total_pairs = 0;
  for (int round = 0; round < 120; ++round) {
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.align.band_width = 4 + static_cast<std::int64_t>(rng.below(45));
    config.align.traceback = (round % 3) != 0;
    config.pool.pools = 1 + static_cast<int>(rng.below(6));
    config.pool.tasklets_per_pool = 1 + static_cast<int>(rng.below(4));
    config.variant =
        (round % 2) == 0 ? KernelVariant::kAsm : KernelVariant::kPureC;

    std::vector<std::pair<std::string, std::string>> pairs;
    const int nr_pairs = 9;
    for (int p = 0; p < nr_pairs; ++p) {
      const std::size_t len = 1 + rng.below(260);
      const std::string a = data::random_dna(len, rng);
      data::ErrorModel errors;
      // Up to ~30% errors: indel drift regularly escapes narrow bands, so
      // the unreachable path is exercised too.
      errors.error_rate = 0.30 * static_cast<double>(rng.below(11)) / 10.0;
      pairs.emplace_back(a, data::mutate(a, errors, rng));
    }
    total_pairs += pairs.size();
    expect_paths_agree(pairs, config,
                       ("round " + std::to_string(round)).c_str());
  }
  EXPECT_GE(total_pairs, 1000u);
}

// Long pairs around the paper's band width: exercises window refills, lo
// staging flushes and multi-chunk BT DMA on all paths. An odd band packs the
// pad nibble of every BT row; the length-skewed pair (30% of a's bases
// deleted) refills a's window faster than b's reversed one.
TEST(KernelFastPathTest, LongPairsPaperBand) {
  Xoshiro256 rng(7);
  std::vector<std::pair<std::string, std::string>> pairs;
  data::ErrorModel errors;
  errors.error_rate = 0.10;
  for (int p = 0; p < 4; ++p) {
    const std::string a = data::random_dna(3000 + rng.below(2000), rng);
    pairs.emplace_back(a, data::mutate(a, errors, rng));
  }
  data::ErrorModel deletions;
  deletions.error_rate = 0.30;
  deletions.sub_fraction = 0.0;
  deletions.ins_fraction = 0.0;
  deletions.del_fraction = 1.0;
  deletions.indel_extend = 0.0;
  const std::string skewed = data::random_dna(6000, rng);
  pairs.emplace_back(skewed, data::mutate(skewed, deletions, rng));

  for (const std::int64_t band : {127, 128, 257}) {
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.align.band_width = band;
    const std::string tag = "long w=" + std::to_string(band);
    expect_paths_agree(pairs, config, tag.c_str());

    config.align.traceback = false;
    expect_paths_agree(pairs, config, (tag + " score-only").c_str());
  }
}

// DbSession rounds — compact session pair entries, the database resident at
// the top of the bank, score-only — agree across paths too: the top-K hits
// of an all-vs-all sweep, and per-pair scores and pool cycles.
TEST(KernelFastPathTest, DbSessionRoundsAgreeAcrossPaths) {
  data::Phylo16sConfig db_config;
  db_config.species = 6;
  db_config.root_length = 800;
  db_config.seed = 3;
  const std::vector<std::string> db = data::generate_16s(db_config);
  std::vector<IndexPair> pairs;
  for (std::uint32_t i = 0; i < db.size(); ++i) {
    for (std::uint32_t j = i + 1; j < db.size(); ++j) pairs.push_back({i, j});
  }
  ScoreFilter top5;
  top5.top_k = 5;

  struct PathRun {
    std::vector<ScoreHit> hits;
    std::vector<PairOutput> outputs;
  };
  auto run = [&](SimPath path) {
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.sim_path = path;
    DbSession session(db, config);
    PathRun result;
    result.hits = session.align_all_vs_all(top5).hits;
    (void)session.align_pairs(pairs, &result.outputs);
    return result;
  };

  const PathRun scalar = run(SimPath::kScalar);
  ASSERT_EQ(scalar.hits.size(), top5.top_k);
  ASSERT_EQ(scalar.outputs.size(), pairs.size());
  for (const SimPath path : {SimPath::kDense, SimPath::kAuto}) {
    const char* tag = sim_path_name(path);
    const PathRun got = run(path);
    ASSERT_EQ(got.hits.size(), scalar.hits.size()) << tag;
    for (std::size_t h = 0; h < got.hits.size(); ++h) {
      EXPECT_EQ(got.hits[h].a, scalar.hits[h].a) << tag << " hit " << h;
      EXPECT_EQ(got.hits[h].b, scalar.hits[h].b) << tag << " hit " << h;
      EXPECT_EQ(got.hits[h].score, scalar.hits[h].score)
          << tag << " hit " << h;
    }
    ASSERT_EQ(got.outputs.size(), pairs.size()) << tag;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const PairOutput& want = scalar.outputs[p];
      EXPECT_EQ(got.outputs[p].ok, want.ok) << tag << " pair " << p;
      EXPECT_EQ(got.outputs[p].score, want.score) << tag << " pair " << p;
      EXPECT_EQ(got.outputs[p].dpu_pool_cycles, want.dpu_pool_cycles)
          << tag << " pair " << p;
    }
  }
}

}  // namespace
}  // namespace pimnw::core
