#include "baseline/ksw2_like.hpp"

#include <gtest/gtest.h>

#include "align/banded_static.hpp"
#include "align/nw_full.hpp"
#include "align/verify.hpp"
#include "testing/dna_testutil.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pimnw::baseline {
namespace {

const align::Scoring kScoring = align::default_scoring();

TEST(Ksw2Test, MatchesBandedStaticExactly) {
  // The optimized baseline is an implementation of the same algorithm as
  // align::banded_static: scores and CIGARs must be identical.
  Xoshiro256 rng(1);
  for (int iter = 0; iter < 25; ++iter) {
    const std::string a = testing::random_dna(rng, 50 + rng.below(400));
    const std::string b = testing::mutate(rng, a, 0.1);
    const std::int64_t band = 8 + static_cast<std::int64_t>(rng.below(120));
    const align::AlignResult fast =
        ksw2_align(a, b, kScoring, {.band_width = band, .traceback = true});
    const align::AlignResult ref = align::banded_static(
        a, b, kScoring, {.band_width = band, .traceback = true});
    ASSERT_EQ(fast.reached_end, ref.reached_end) << "iter " << iter;
    if (!ref.reached_end) continue;
    EXPECT_EQ(fast.score, ref.score) << "iter " << iter;
    EXPECT_EQ(fast.cigar.to_string(), ref.cigar.to_string())
        << "iter " << iter;
    EXPECT_EQ(fast.cells, ref.cells) << "iter " << iter;
  }
}

TEST(Ksw2Test, WideBandIsOptimal) {
  Xoshiro256 rng(2);
  const std::string a = testing::random_dna(rng, 200);
  const std::string b = testing::mutate(rng, a, 0.08);
  const align::AlignResult r = ksw2_align(
      a, b, kScoring,
      {.band_width = static_cast<std::int64_t>(2 * (a.size() + b.size())),
       .traceback = true});
  ASSERT_TRUE(r.reached_end);
  EXPECT_EQ(r.score, align::nw_full_score(a, b, kScoring));
  EXPECT_EQ(align::check_alignment(r, a, b, kScoring), "");
}

TEST(Ksw2Test, CornerOutsideBandFails) {
  const std::string a(100, 'A');
  const std::string b(200, 'A');
  const align::AlignResult r =
      ksw2_align(a, b, kScoring, {.band_width = 16, .traceback = false});
  EXPECT_FALSE(r.reached_end);
}

TEST(Ksw2Test, ScoreOnlyModeMatches) {
  Xoshiro256 rng(3);
  const std::string a = testing::random_dna(rng, 300);
  const std::string b = testing::mutate(rng, a, 0.06);
  const align::AlignResult with_tb =
      ksw2_align(a, b, kScoring, {.band_width = 64, .traceback = true});
  const align::AlignResult without =
      ksw2_align(a, b, kScoring, {.band_width = 64, .traceback = false});
  EXPECT_EQ(with_tb.score, without.score);
  EXPECT_TRUE(without.cigar.empty());
}

TEST(Ksw2Test, RejectsNonAcgt) {
  EXPECT_THROW(ksw2_align("ACGN", "ACGT", kScoring, {}), CheckError);
  EXPECT_THROW(ksw2_align("ACGT", "NNNN", kScoring, {}), CheckError);
}

TEST(CpuBatchTest, ThroughputMeasurementIsPositive) {
  EXPECT_GT(measure_local_cells_per_second(2'000'000), 1e6);
}

}  // namespace
}  // namespace pimnw::baseline
