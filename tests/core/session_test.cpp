// Persistent-database sessions (DESIGN.md §13): bit-identity of the
// session path against the per-batch pairwise path and full DP, the
// exactly-once triangular tiling property, streaming top-K/threshold
// reduction vs the full matrix, bounded MRAM footprints across rounds and
// broadcast-bytes attribution.
// Suite names carry "Session" so the tsan preset's test filter includes
// them (sinks run concurrently from decode workers).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "align/nw_full.hpp"
#include "core/host.hpp"
#include "core/load_balance.hpp"
#include "core/mram_layout.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "data/phylo16s.hpp"
#include "util/check.hpp"

namespace pimnw::core {
namespace {

/// A 16S-like database short enough that the 128-wide band covers every DP
/// diagonal (m + n <= band), so banded == full DP and scores are exact.
std::vector<std::string> tiny_db(std::size_t species, std::uint64_t seed) {
  data::Phylo16sConfig config;
  config.species = species;
  config.root_length = 48;
  config.seed = seed;
  return data::generate_16s(config);
}

std::vector<IndexPair> all_pairs(std::size_t n) {
  std::vector<IndexPair> pairs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      pairs.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j)});
    }
  }
  return pairs;
}

PimAlignerConfig session_config(int nr_ranks) {
  PimAlignerConfig config;
  config.nr_ranks = nr_ranks;
  config.align.traceback = false;
  return config;
}

// The tentpole pin: scores produced through the resident-database session
// (8-byte index pairs out, 16-byte score records back) must be bit-identical
// to PimAligner::align_pairs over the same enumerated pairs (sequences
// re-sent per batch) and, with the band covering the whole matrix, to the
// full-DP optimum.
TEST(SessionBitIdentity, MatchesLegacyAllVsAllAndFullDp) {
  const std::vector<std::string> db = tiny_db(10, 5);
  const std::vector<IndexPair> pairs = all_pairs(db.size());

  std::vector<PairInput> views;
  for (const IndexPair& pair : pairs) {
    views.push_back({db[pair.a], db[pair.b]});
  }
  std::vector<PairOutput> batch_out;
  PimAligner aligner(session_config(1));
  (void)aligner.align_pairs(views, &batch_out);
  ASSERT_EQ(batch_out.size(), pairs.size());

  const align::Scoring scoring;  // the session default
  const PimAlignerConfig config = session_config(1);
  DbSession session(db, config);
  std::vector<PairOutput> out;
  (void)session.align_pairs(pairs, &out);
  ASSERT_EQ(out.size(), pairs.size());
  std::size_t exact_checked = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(out[p].ok, batch_out[p].ok) << "pair " << p;
    EXPECT_EQ(out[p].score, batch_out[p].score) << "pair " << p;
    // Banded == full DP only where the 128-wide band covers the whole
    // matrix (m + n <= band); the generator's long indels push a few
    // pairs beyond that, where banded is legitimately suboptimal.
    const std::string& a = db[pairs[p].a];
    const std::string& b = db[pairs[p].b];
    if (out[p].ok && a.size() + b.size() <=
                         static_cast<std::size_t>(config.align.band_width)) {
      EXPECT_EQ(out[p].score, align::nw_full_score(a, b, scoring))
          << "pair " << p;
      ++exact_checked;
    }
  }
  EXPECT_GT(exact_checked, pairs.size() / 2);  // the gate must have teeth
}

// Sessions force traceback off; the config copy the session keeps must
// reflect that even when the caller asked for CIGARs.
TEST(SessionConfig, TracebackForcedOff) {
  PimAlignerConfig config = session_config(1);
  config.align.traceback = true;
  DbSession session(tiny_db(4, 9), config);
  EXPECT_FALSE(session.config().align.traceback);
}

// Exactly-once property of the triangular tiling: over every tile of every
// (k, tile_span) combination, each unordered pair (i, j), i < j, is visited
// exactly once, and tile workloads/pair counts are consistent.
TEST(SessionTiling, CoversEachPairExactlyOnce) {
  for (const std::uint32_t k : {1u, 2u, 5u, 17u, 64u}) {
    std::vector<std::uint32_t> lengths;
    for (std::uint32_t i = 0; i < k; ++i) lengths.push_back(100 + 7 * i);
    for (const std::uint32_t span : {1u, 2u, 3u, 8u, 64u, 100u}) {
      const std::vector<TriTile> tiles =
          build_triangular_tiles(lengths, span, 128);
      std::vector<int> seen(k * k, 0);
      std::uint64_t total_pairs = 0;
      std::uint64_t total_workload = 0;
      for (const TriTile& tile : tiles) {
        EXPECT_GT(tile.pairs, 0u);  // empty tiles must have been dropped
        std::uint64_t tile_pairs = 0;
        tile.for_each_pair([&](std::uint32_t i, std::uint32_t j) {
          ASSERT_LT(i, j);
          ASSERT_LT(j, k);
          ++seen[i * k + j];
          ++tile_pairs;
        });
        EXPECT_EQ(tile_pairs, tile.pairs);
        total_pairs += tile.pairs;
        total_workload += tile.workload;
      }
      EXPECT_EQ(total_pairs, static_cast<std::uint64_t>(k) * (k - 1) / 2)
          << "k=" << k << " span=" << span;
      std::uint64_t expect_workload = 0;
      for (std::uint32_t i = 0; i < k; ++i) {
        for (std::uint32_t j = i + 1; j < k; ++j) {
          EXPECT_EQ(seen[i * k + j], 1)
              << "pair (" << i << ", " << j << ") k=" << k << " span=" << span;
          expect_workload += pair_workload(lengths[i], lengths[j], 128);
        }
      }
      EXPECT_EQ(total_workload, expect_workload);
    }
  }
}

// The streaming reduction must agree with brute force over the full matrix:
// same kept set for top-K (the hit_better total order makes it unique) and
// for a min-score threshold, regardless of the tiled arrival order.
TEST(SessionTopK, AgreesWithFullMatrix) {
  const std::vector<std::string> db = tiny_db(12, 21);
  const std::vector<IndexPair> pairs = all_pairs(db.size());

  // Full matrix through the session pairwise path (same modeled kernel).
  std::vector<PairOutput> out;
  {
    DbSession session(db, session_config(1));
    (void)session.align_pairs(pairs, &out);
  }
  std::vector<ScoreHit> full;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (out[p].ok) full.push_back({pairs[p].a, pairs[p].b, out[p].score});
  }
  std::sort(full.begin(), full.end(), hit_better);

  for (const int nr_ranks : {1, 2}) {
    ScoreFilter top5;
    top5.top_k = 5;
    DbSession session(db, session_config(nr_ranks));
    const DbSession::AllVsAllResult sweep = session.align_all_vs_all(top5);
    EXPECT_EQ(sweep.pairs_swept, pairs.size());
    ASSERT_EQ(sweep.hits.size(), std::min<std::size_t>(5, full.size()));
    for (std::size_t h = 0; h < sweep.hits.size(); ++h) {
      EXPECT_EQ(sweep.hits[h].a, full[h].a) << "rank " << h;
      EXPECT_EQ(sweep.hits[h].b, full[h].b) << "rank " << h;
      EXPECT_EQ(sweep.hits[h].score, full[h].score) << "rank " << h;
    }
  }

  // Threshold filter: everything at or above the median score, unbounded.
  ASSERT_FALSE(full.empty());
  ScoreFilter threshold;
  threshold.min_score = full[full.size() / 2].score;
  DbSession session(db, session_config(1));
  const DbSession::AllVsAllResult sweep = session.align_all_vs_all(threshold);
  std::vector<ScoreHit> expect;
  for (const ScoreHit& hit : full) {
    if (hit.score >= *threshold.min_score) expect.push_back(hit);
  }
  ASSERT_EQ(sweep.hits.size(), expect.size());
  for (std::size_t h = 0; h < expect.size(); ++h) {
    EXPECT_EQ(sweep.hits[h].a, expect[h].a);
    EXPECT_EQ(sweep.hits[h].b, expect[h].b);
    EXPECT_EQ(sweep.hits[h].score, expect[h].score);
  }
}

// The kept top-K set must not depend on arrival order (the sink consumes
// plans in whatever order decode workers finish).
TEST(SessionReducer, OrderIndependentTopK) {
  std::vector<ScoreHit> hits;
  for (std::uint32_t i = 0; i < 40; ++i) {
    hits.push_back({i, i + 1, static_cast<std::int32_t>((i * 37) % 11) - 3});
  }
  ScoreFilter filter;
  filter.top_k = 7;
  ScoreReducer forward(filter);
  for (const ScoreHit& h : hits) forward.offer(h.a, h.b, h.score);
  ScoreReducer backward(filter);
  for (auto it = hits.rbegin(); it != hits.rend(); ++it) {
    backward.offer(it->a, it->b, it->score);
  }
  const std::vector<ScoreHit> f = forward.take_sorted();
  const std::vector<ScoreHit> r = backward.take_sorted();
  ASSERT_EQ(f.size(), 7u);
  ASSERT_EQ(r.size(), 7u);
  for (std::size_t h = 0; h < f.size(); ++h) {
    EXPECT_EQ(f[h].a, r[h].a);
    EXPECT_EQ(f[h].b, r[h].b);
    EXPECT_EQ(f[h].score, r[h].score);
  }
  EXPECT_EQ(forward.offered(), hits.size());
}

// Satellite 2: across many rounds the per-round scratch (round image +
// result region) is dropped after each align_* call, so the materialised
// footprint of the per-worker arena banks stays flat at the
// resident-database level instead of growing with the rounds.
TEST(SessionFootprint, ScratchReleasedAndBounded) {
  const std::vector<std::string> db = tiny_db(8, 13);
  const std::vector<IndexPair> pairs = all_pairs(db.size());
  PimAlignerConfig config = session_config(1);
  config.batch_pairs = 8;  // several rounds per call
  DbSession session(db, config);

  (void)session.align_pairs(pairs, nullptr);
  EXPECT_GT(session.last_scratch_released(), 0u);
  const std::uint64_t after_first = session.max_bank_footprint();
  EXPECT_GT(after_first, 0u);  // the resident database stays materialised

  for (int round = 0; round < 4; ++round) {
    (void)session.align_pairs(pairs, nullptr);
    EXPECT_GT(session.last_scratch_released(), 0u);
    EXPECT_EQ(session.max_bank_footprint(), after_first) << "round " << round;
  }
}

// Satellite 1: broadcast traffic is attributed separately — the report's
// bytes_broadcast covers exactly the one-time database upload (image bytes
// x nr_dpus), the stats collector counts it, and the per-round marginal
// traffic (bytes_to_dpus - bytes_broadcast) stays flat per additional round
// instead of re-paying the database.
TEST(SessionStats, BroadcastAttributedSeparately) {
  const std::vector<std::string> db = tiny_db(8, 29);
  const std::vector<IndexPair> pairs = all_pairs(db.size());
  StatsCollector stats;
  PimAlignerConfig config = session_config(1);
  config.stats = &stats;
  DbSession session(db, config);

  const RunReport first = session.align_pairs(pairs, nullptr);
  const std::uint64_t expect_broadcast =
      session.db_bytes() *
      static_cast<std::uint64_t>(upmem::kDpusPerRank) *
      static_cast<std::uint64_t>(config.nr_ranks);
  EXPECT_EQ(first.bytes_broadcast, expect_broadcast);
  EXPECT_EQ(stats.broadcasts(), 1u);
  EXPECT_EQ(stats.broadcast_bytes(), expect_broadcast);
  EXPECT_GT(stats.broadcast_seconds(), 0.0);
  EXPECT_GT(first.bytes_to_dpus, first.bytes_broadcast);

  const std::uint64_t first_marginal =
      first.bytes_to_dpus - first.bytes_broadcast;
  const RunReport second = session.align_pairs(pairs, nullptr);
  // No re-broadcast: the database is already resident.
  EXPECT_EQ(second.bytes_broadcast, expect_broadcast);
  EXPECT_EQ(stats.broadcasts(), 1u);
  // The second call pays only marginal traffic, the same as the first's.
  EXPECT_EQ(second.bytes_to_dpus - second.bytes_broadcast,
            2 * first_marginal);

  // The marginal per-pair cost is on the order of the 8-byte index entry
  // plus its share of the 96-byte round header — far below re-sending the
  // packed sequences (~2 x 48 bp / 4 + entries ≈ hundreds of bytes).
  EXPECT_LT(first_marginal / pairs.size(), 200u);
}

// Session wire format: the round image must refuse traceback configs and
// pairs outside the database, and the score-only kernel round must never
// write CIGAR bytes (bytes_from_dpus counts 16-byte records only).
TEST(SessionLayout, RoundImageValidation) {
  const std::vector<std::string> db = tiny_db(4, 7);
  std::vector<std::string_view> views(db.begin(), db.end());
  const SeqPool pool = SeqPool::build(views);
  const std::vector<std::uint8_t> image =
      build_session_db_image(pool, kBroadcastPoolOffset);
  EXPECT_GT(image.size(), db.size() * sizeof(SeqEntry));

  DpuBatchInput batch;
  batch.pairs.push_back({0, 1, 0});
  AlignConfig config;
  PoolConfig pools;
  config.traceback = true;
  EXPECT_THROW(build_session_round_image(batch, nw_kernel(), config, pools,
                                         kBroadcastPoolOffset,
                                         static_cast<std::uint32_t>(db.size()),
                                         /*scratch_stride=*/0),
               CheckError);
  config.traceback = false;
  const MramImage round = build_session_round_image(
      batch, nw_kernel(), config, pools, kBroadcastPoolOffset,
      static_cast<std::uint32_t>(db.size()), /*scratch_stride=*/0);
  EXPECT_EQ(round.readback_bytes, sizeof(SessionResult));
  EXPECT_LE(round.total_bytes, kBroadcastPoolOffset);

  DpuBatchInput bad;
  bad.pairs.push_back({0, 9, 0});  // seq_b outside the database
  EXPECT_THROW(build_session_round_image(bad, nw_kernel(), config, pools,
                                         kBroadcastPoolOffset,
                                         static_cast<std::uint32_t>(db.size()),
                                         /*scratch_stride=*/0),
               CheckError);
}

}  // namespace
}  // namespace pimnw::core
