// Equivalence of the simulator's kernel execution paths (SimPath): the
// branchy scalar reference, the portable dense sweep, and the widest vector
// sweep behind kAuto must produce bit-identical scores, CIGARs, modeled pool
// cycles, DMA bytes and bank bytes on every input. This is the contract that
// lets the fast path exist at all — host execution strategy is invisible to
// every modeled number (DESIGN.md "Simulator fast path").
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "align/adaptive_steering.hpp"
#include "align/bt_code.hpp"
#include "core/dpu_kernel.hpp"
#include "core/host.hpp"
#include "core/kernel_simd.hpp"
#include "core/mram_layout.hpp"
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

// One anti-diagonal laid out as compute_diag_fast lays it out: four band
// arrays of w slots between kNegInf sentinels, updated in place through a
// simd::DiagSpan whose lanes start at slot ka, and a packed BT row of
// row_bytes bytes (one pad byte, as the 8-byte rounding adds) followed by
// kCanaryBytes the sweep must not touch.
constexpr std::size_t kCanaryBytes = 8;

struct SweepCase {
  std::vector<align::Score> h_prev, h_cur, iv, dv;  // w + 2 slots each
  std::vector<std::uint8_t> base_a, base_b, row;
  std::int64_t row_bytes = 0;

  simd::DiagSpan span(std::int64_t ka, std::int64_t len, std::int64_t shift1,
                      std::int64_t shift2, bool traceback) {
    align::Score* const out_h = h_cur.data() + 1;
    align::Score* const out_i = iv.data() + 1;
    align::Score* const out_d = dv.data() + 1;
    simd::DiagSpan d{};
    d.up_h = h_prev.data() + 1 + ka + shift1 - 1;
    d.up_i = out_i + ka + shift1 - 1;
    d.left_h = h_prev.data() + 1 + ka + shift1;
    d.left_d = out_d + ka + shift1;
    d.diag_h = out_h + ka + shift2 - 1;
    d.base_a = base_a.data();
    d.base_b = base_b.data();
    d.out_h = out_h + ka;
    d.out_i = out_i + ka;
    d.out_d = out_d + ka;
    d.bt_row = traceback ? row.data() : nullptr;
    d.bt_bytes = row_bytes;
    d.bt_first = ka;
    d.len = len;
    d.descending = shift1 == 0;
    const align::Scoring sc = align::default_scoring();
    d.match = sc.match;
    d.mismatch = sc.mismatch;
    d.gap_extend = sc.gap_extend;
    d.open_ext = sc.open_extend();
    return d;
  }
};

SweepCase random_case(std::int64_t w, std::int64_t len, Xoshiro256& rng) {
  SweepCase c;
  for (auto* band : {&c.h_prev, &c.h_cur, &c.iv, &c.dv}) {
    band->assign(static_cast<std::size_t>(w) + 2, align::kNegInf);
    for (std::int64_t k = 1; k <= w; ++k) {
      // Small scores make ties common; one slot in eight is out of band.
      (*band)[static_cast<std::size_t>(k)] =
          rng.below(8) == 0 ? align::kNegInf
                            : static_cast<align::Score>(rng.below(41)) - 20;
    }
  }
  for (auto* bases : {&c.base_a, &c.base_b}) {
    bases->resize(static_cast<std::size_t>(len));
    for (auto& base : *bases) base = static_cast<std::uint8_t>(rng.below(4));
  }
  c.row_bytes = static_cast<std::int64_t>(
                    align::bt_bytes(static_cast<std::uint64_t>(w))) +
                1;
  c.row.assign(static_cast<std::size_t>(c.row_bytes) + kCanaryBytes, 0xA5);
  return c;
}

// Every vector sweep the build carries against the portable reference, on
// the in-place aliasing compute_diag_fast uses: both shift1 values (and so
// both walk directions) with shift2 - shift1 in {0, 1}, every length from 0
// (an empty anti-diagonal) to 3N+1 (whole blocks, remainder lanes, the dense
// head of an odd first nibble), score-only and packed BT, on a row filled
// with 0xA5. The band arrays, sentinels included, and every byte of the row
// and its canary must match what the portable sweep leaves; in packed-BT
// mode every nibble of the row outside the span reads 0 and the canary
// keeps its 0xA5.
class VectorSweepTest : public ::testing::TestWithParam<simd::Isa> {};

TEST_P(VectorSweepTest, MatchesDenseReference) {
  const simd::Isa isa = GetParam();
  if (isa > simd::auto_isa()) {
    GTEST_SKIP() << simd::isa_name(isa) << " is not in this build or CPU";
  }
  const std::int64_t lanes = isa == simd::Isa::kAvx512 ? 16 : 8;
  Xoshiro256 rng(20261017);
  for (std::int64_t len = 0; len <= 3 * lanes + 1; ++len) {
    for (const std::int64_t ka : {0, 1}) {
      // ka == 0 reads the low sentinels, and w == ka + len the high ones.
      const std::int64_t w = ka + len + ka;
      for (const std::int64_t shift1 : {0, 1}) {
        for (const std::int64_t shift2 : {shift1, shift1 + 1}) {
          for (const bool traceback : {false, true}) {
            SweepCase want = random_case(w, len, rng);
            SweepCase got = want;
            simd::diag_update(want.span(ka, len, shift1, shift2, traceback),
                              simd::Isa::kPortable);
            simd::diag_update(got.span(ka, len, shift1, shift2, traceback),
                              isa);
            const std::string tag =
                "len=" + std::to_string(len) + " ka=" + std::to_string(ka) +
                " shift1=" + std::to_string(shift1) +
                " shift2=" + std::to_string(shift2) +
                (traceback ? " bt" : " score-only");
            ASSERT_EQ(got.h_prev, want.h_prev) << tag;
            ASSERT_EQ(got.h_cur, want.h_cur) << tag;
            ASSERT_EQ(got.iv, want.iv) << tag;
            ASSERT_EQ(got.dv, want.dv) << tag;
            ASSERT_EQ(got.row, want.row) << tag;
            const std::uint64_t row_nibbles =
                2 * static_cast<std::uint64_t>(want.row_bytes);
            for (std::uint64_t k = 0; k < 2 * want.row.size(); ++k) {
              const bool in_span = k >= static_cast<std::uint64_t>(ka) &&
                                   k < static_cast<std::uint64_t>(ka + len);
              if (traceback && in_span) continue;
              const std::uint8_t stale = (k & 1) ? 0xA : 0x5;
              ASSERT_EQ(align::bt_load(want.row.data(), k),
                        traceback && k < row_nibbles ? 0 : stale)
                  << tag << " nibble " << k;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(KernelFastPathTest, VectorSweepTest,
                         ::testing::Values(simd::Isa::kAvx2,
                                           simd::Isa::kAvx512),
                         [](const ::testing::TestParamInfo<simd::Isa>& info) {
                           return std::string(simd::isa_name(info.param));
                         });

// A band between anti-diagonals as compute_band keeps it for a band run:
// the four band arrays between kNegInf sentinels, two decoded windows (b's
// reversed), the bank rows left in a chunk followed by a canary, the lo
// staging buffer and the steering state.
struct RunCase {
  std::int64_t m = 0, n = 0, w = 0;
  std::vector<align::Score> h0, h1, iv, dv;  // w + 2 slots each
  std::vector<std::uint8_t> a, b;            // window codes; b back to front
  std::int64_t a_first = 0, b_first = 0;
  bool traceback = false;
  std::vector<std::uint8_t> rows;  // rows_left rows, then the canary
  std::size_t canary_bytes = 0;
  std::int64_t row_bytes = 0, rows_left = 0;
  std::vector<std::uint32_t> lo_buf;  // its size is the capacity
  std::uint32_t lo_staged = 0;
  std::int64_t s = 0, lo = 0, lo1 = 0, lo2 = 0;
  std::int64_t steps = 0;

  std::int64_t a_end() const {
    return a_first + static_cast<std::int64_t>(a.size());
  }
  std::int64_t b_end() const {
    return b_first + static_cast<std::int64_t>(b.size());
  }

  simd::BandRun state() {
    const align::Scoring sc = align::default_scoring();
    simd::BandRun r{};
    r.m = m;
    r.n = n;
    r.w = w;
    r.h[0] = h0.data() + 1;
    r.h[1] = h1.data() + 1;
    r.iv = iv.data() + 1;
    r.dv = dv.data() + 1;
    r.a = {a.data(), a_first, a_end()};
    r.b = {b.data(), b_first, b_end()};
    r.traceback = traceback;
    r.bt_rows = rows.data();
    r.bt_bytes = row_bytes;
    r.rows_left = rows_left;
    r.lo_buf = lo_buf.data();
    r.lo_capacity = static_cast<std::uint32_t>(lo_buf.size());
    r.match = sc.match;
    r.mismatch = sc.mismatch;
    r.gap_extend = sc.gap_extend;
    r.open_ext = sc.open_extend();
    r.lo_staged = lo_staged;
    r.s = s;
    r.lo = lo;
    r.lo1 = lo1;
    r.lo2 = lo2;
    return r;
  }
};

// Why a run stops: each condition of simd::BandRun's steady list that an
// anti-diagonal can fail. (s < m + n never fails alone: the interior
// conditions imply it for w >= 2.)
enum Exit {
  kLoZero,    // lo < 1: the band holds row i = 0
  kTop,       // lo < s - n: its top row has j > n
  kBottom,    // lo + w - 1 > m: its bottom row is past row m
  kJZero,     // lo + w - 1 >= s: it holds column j = 0
  kAFirst,    // a's window starts after a[lo - 1]
  kAEnd,      // a's window ends before a[lo + w - 2]
  kBFirst,    // b's window starts after b[s - lo - w]
  kBEnd,      // b's window ends before b[s - lo - 1]
  kRows,      // row s is not among the rows left in the chunk
  kLoBuf,     // staging lo would fill the lo buffer
  kExits
};

const char* const kExitNames[kExits] = {"lo0", "top",   "bottom", "j0",
                                        "a.first", "a.end", "b.first",
                                        "b.end",   "rows",  "lo_buf"};

/// The conditions anti-diagonal c.s fails, one bit per Exit.
unsigned failed_conditions(const RunCase& c) {
  const std::int64_t bottom = c.lo + c.w - 1;
  const bool failed[kExits] = {
      c.lo < 1,
      c.lo < c.s - c.n,
      bottom > c.m,
      bottom >= c.s,
      c.lo - 1 < c.a_first,
      bottom - 1 >= c.a_end(),
      c.s - bottom - 1 < c.b_first,
      c.s - c.lo - 1 >= c.b_end(),
      c.traceback && c.steps >= c.rows_left,
      c.traceback &&
          c.lo_staged + 1 >= static_cast<std::uint32_t>(c.lo_buf.size()),
  };
  unsigned bits = 0;
  for (int e = 0; e < kExits; ++e) bits |= failed[e] ? 1u << e : 0u;
  return bits;
}

/// Step c's anti-diagonals one at a time as compute_band's general path
/// does on a steady one: stage lo, update the whole band with the portable
/// diag_update into the next row, steer with adaptive_move_down. Returns
/// the conditions the first unsteady anti-diagonal fails.
unsigned step_reference(RunCase& c) {
  const align::Scoring sc = align::default_scoring();
  const std::size_t w = static_cast<std::size_t>(c.w);
  for (;; ++c.s, ++c.steps) {
    if (const unsigned failed = failed_conditions(c)) return failed;
    EXPECT_LT(c.s, c.m + c.n);
    if (c.traceback) c.lo_buf[c.lo_staged++] = static_cast<std::uint32_t>(c.lo);
    // Lane t pairs a[lo - 1 + t] with b[s - lo - 1 - t]; b's window holds
    // base b_end - 1 first.
    std::vector<std::uint8_t> base_a(w), base_b(w);
    for (std::size_t t = 0; t < w; ++t) {
      const std::int64_t i = c.lo - 1 + static_cast<std::int64_t>(t);
      const std::int64_t j = c.s - c.lo - 1 - static_cast<std::int64_t>(t);
      base_a[t] = c.a[static_cast<std::size_t>(i - c.a_first)];
      base_b[t] = c.b[static_cast<std::size_t>(c.b_end() - 1 - j)];
    }
    align::Score* const h_cur = ((c.s & 1) ? c.h1 : c.h0).data() + 1;
    align::Score* const h_prev = ((c.s & 1) ? c.h0 : c.h1).data() + 1;
    align::Score* const out_i = c.iv.data() + 1;
    align::Score* const out_d = c.dv.data() + 1;
    const std::int64_t shift1 = c.lo - c.lo1;
    const std::int64_t shift2 = c.lo - c.lo2;
    simd::DiagSpan d{};
    d.up_h = h_prev + shift1 - 1;
    d.up_i = out_i + shift1 - 1;
    d.left_h = h_prev + shift1;
    d.left_d = out_d + shift1;
    d.diag_h = h_cur + shift2 - 1;
    d.base_a = base_a.data();
    d.base_b = base_b.data();
    d.out_h = h_cur;
    d.out_i = out_i;
    d.out_d = out_d;
    d.bt_row = c.traceback
                   ? c.rows.data() + static_cast<std::size_t>(c.steps *
                                                              c.row_bytes)
                   : nullptr;
    d.bt_bytes = c.row_bytes;
    d.bt_first = 0;
    d.len = c.w;
    d.descending = shift1 == 0;
    d.match = sc.match;
    d.mismatch = sc.mismatch;
    d.gap_extend = sc.gap_extend;
    d.open_ext = sc.open_extend();
    simd::diag_update(d, simd::Isa::kPortable);
    const bool down = align::adaptive_move_down(c.lo, c.s, c.m, c.n, c.w,
                                                h_cur[0], h_cur[w - 1]);
    c.lo2 = c.lo1;
    c.lo1 = c.lo;
    c.lo += down ? 1 : 0;
  }
}

/// A random steady-looking band state aimed at stopping on `target`: that
/// condition fails at the start (kLoZero, kJZero and the window starts,
/// which only a start state can fail) or within a few anti-diagonals, and
/// every other one holds for hundreds.
RunCase random_run(std::int64_t w, bool traceback, Exit target,
                   Xoshiro256& rng) {
  constexpr std::int64_t kFar = 400;
  auto slack = [&] { return static_cast<std::int64_t>(rng.below(12)); };
  RunCase c;
  c.w = w;
  c.traceback = traceback;
  for (auto* band : {&c.h0, &c.h1, &c.iv, &c.dv}) {
    band->assign(static_cast<std::size_t>(w) + 2, align::kNegInf);
    for (std::int64_t k = 1; k <= w; ++k) {
      (*band)[static_cast<std::size_t>(k)] =
          rng.below(8) == 0 ? align::kNegInf
                            : static_cast<align::Score>(rng.below(41)) - 20;
    }
  }
  c.lo = target == kLoZero ? 0 : 2 + static_cast<std::int64_t>(rng.below(50));
  c.lo1 = std::max<std::int64_t>(c.lo - static_cast<std::int64_t>(rng.below(2)),
                                 0);
  c.lo2 = std::max<std::int64_t>(
      c.lo1 - static_cast<std::int64_t>(rng.below(2)), 0);
  const std::int64_t bottom = c.lo + w - 1;
  c.s = target == kJZero ? bottom : bottom + 1 + slack();
  c.m = bottom + (target == kBottom ? slack() : kFar);
  c.n = c.s - c.lo + (target == kTop ? slack() : kFar);
  // Windows around the bases the start reads: a[lo - 1, lo + w - 2] and
  // b[s - lo - w, s - lo - 1].
  c.a_first = c.lo - 1 - slack() + (target == kAFirst ? slack() + 1 : 0);
  const std::int64_t a_end = bottom + (target == kAEnd ? slack() : kFar);
  c.b_first = c.s - bottom - 1 - slack() + (target == kBFirst ? slack() + 1 : 0);
  const std::int64_t b_end = c.s - c.lo + (target == kBEnd ? slack() : kFar);
  for (auto [codes, first, end] :
       {std::tuple{&c.a, c.a_first, a_end}, std::tuple{&c.b, c.b_first, b_end}}) {
    codes->resize(static_cast<std::size_t>(end - first));
    for (auto& code : *codes) code = static_cast<std::uint8_t>(rng.below(4));
  }
  c.row_bytes = static_cast<std::int64_t>(
      align8(align::bt_bytes(static_cast<std::uint64_t>(w))));
  c.rows_left = target == kRows ? slack() : 2 * kFar;
  // A run lasts at most 2 * kFar + 1 anti-diagonals: kFar moves down and
  // kFar right reach the far limits. So a run that wrote past rows_left
  // would hit the canary, not the heap.
  c.canary_bytes = static_cast<std::size_t>(4 * kFar * c.row_bytes);
  c.rows.assign(static_cast<std::size_t>(c.rows_left * c.row_bytes) +
                    c.canary_bytes,
                0xA5);
  c.lo_buf.assign(target == kLoBuf ? 128 : 4 * kFar, 0xFFFFFFFFu);
  c.lo_staged = static_cast<std::uint32_t>(
      target == kLoBuf ? 127 - slack() : static_cast<std::int64_t>(rng.below(8)));
  return c;
}

// Every vector band run the build carries against per-anti-diagonal steps
// of the portable sweep, from random band states at widths with and without
// remainder lanes and with an odd pad nibble, score-only and with
// traceback. The step count, the steering state, the four band arrays
// (sentinels included), the staged lo values and every row byte up to and
// including the canary after the last row must match, and each exit of the
// steady list must stop some run on its own.
class BandRunTest : public ::testing::TestWithParam<simd::Isa> {};

TEST_P(BandRunTest, MatchesPerDiagonalSteps) {
  const simd::Isa isa = GetParam();
  if (isa > simd::auto_isa()) {
    GTEST_SKIP() << simd::isa_name(isa) << " is not in this build or CPU";
  }
  Xoshiro256 rng(20261018);
  for (const std::int64_t w : {9, 16, 17, 127, 128}) {
    for (const bool traceback : {false, true}) {
      int sole[kExits] = {};
      for (int trial = 0; trial < 12 * kExits; ++trial) {
        const Exit target = static_cast<Exit>(trial % kExits);
        if (!traceback && (target == kRows || target == kLoBuf)) continue;
        RunCase want = random_run(w, traceback, target, rng);
        RunCase got = want;
        const unsigned failed = step_reference(want);
        simd::BandRun run = got.state();
        got.steps = simd::band_run(run, isa);
        got.s = run.s;
        got.lo = run.lo;
        got.lo1 = run.lo1;
        got.lo2 = run.lo2;
        got.lo_staged = run.lo_staged;

        const std::string tag = std::string(traceback ? "bt" : "score-only") +
                                " w=" + std::to_string(w) + " trial " +
                                std::to_string(trial) + " aimed at " +
                                kExitNames[target];
        ASSERT_EQ(got.steps, want.steps) << tag;
        ASSERT_EQ(got.s, want.s) << tag;
        ASSERT_EQ(got.lo, want.lo) << tag;
        ASSERT_EQ(got.lo1, want.lo1) << tag;
        ASSERT_EQ(got.lo2, want.lo2) << tag;
        ASSERT_EQ(got.h0, want.h0) << tag;
        ASSERT_EQ(got.h1, want.h1) << tag;
        ASSERT_EQ(got.iv, want.iv) << tag;
        ASSERT_EQ(got.dv, want.dv) << tag;
        for (const auto* band : {&got.h0, &got.h1, &got.iv, &got.dv}) {
          ASSERT_EQ(band->front(), align::kNegInf) << tag;
          ASSERT_EQ(band->back(), align::kNegInf) << tag;
        }
        ASSERT_EQ(got.lo_staged, want.lo_staged) << tag;
        ASSERT_EQ(got.lo_buf, want.lo_buf) << tag;
        ASSERT_EQ(got.rows, want.rows) << tag;
        const auto canary =
            got.rows.end() - static_cast<std::ptrdiff_t>(got.canary_bytes);
        ASSERT_TRUE(std::all_of(canary, got.rows.end(),
                                [](std::uint8_t v) { return v == 0xA5; }))
            << tag << ": canary";
        if ((failed & (failed - 1)) == 0) ++sole[std::countr_zero(failed)];
      }
      for (int e = 0; e < kExits; ++e) {
        if (!traceback && (e == kRows || e == kLoBuf)) continue;
        EXPECT_GT(sole[e], 0) << "no run stopped on " << kExitNames[e]
                              << " alone, w=" << w
                              << (traceback ? " bt" : " score-only");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(, BandRunTest,
                         ::testing::Values(simd::Isa::kAvx2,
                                           simd::Isa::kAvx512),
                         [](const ::testing::TestParamInfo<simd::Isa>& info) {
                           return std::string(simd::isa_name(info.param));
                         });

// kAuto runs the widest sweep the CPU supports; on x86-64 the build carries
// both vector sweeps.
TEST(KernelFastPathTest, AutoRunsTheWidestSupportedIsa) {
  const char* widest = "portable";
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    widest = "avx512";
  } else if (__builtin_cpu_supports("avx2")) {
    widest = "avx2";
  }
#endif
  EXPECT_STREQ(simd::isa_name(simd::auto_isa()), widest);
}

// Also run at widths RandomizedEquivalenceSweep never draws: w = 2 and 3
// keep every diagonal inside the dense tail of the vector sweeps, 9 and 17
// leave one remainder lane on a full 8-lane band, 32 and 33 run whole
// 16-lane blocks plus a remainder lane, and at each width the descending
// walk reads the band arrays' low sentinels and the ascending walk their
// high ones.
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
  for (const std::int64_t band : {2, 3, 8, 9, 16, 17, 32, 33}) {
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

/// The whole BT scratch region (every pool's lo words and rows) after one
/// NwDpuProgram launch of `pairs` under `path`, on a bank whose scratch
/// region held 0xA5 before the launch, as a reused bank holds stale bytes.
std::vector<std::uint8_t> bt_region_after_launch(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    std::int64_t band, int pools, SimPath path) {
  std::vector<std::string_view> seqs;
  DpuBatchInput batch;
  for (std::uint32_t p = 0; p < pairs.size(); ++p) {
    seqs.push_back(pairs[p].first);
    seqs.push_back(pairs[p].second);
    batch.pairs.push_back({2 * p, 2 * p + 1, p});
  }
  AlignConfig align;
  align.band_width = band;
  PoolConfig pool_config;
  pool_config.pools = pools;
  const MramImage image = build_mram_image(batch, SeqPool::build(seqs),
                                           nw_kernel(), align, pool_config);
  BatchHeader header;
  std::memcpy(&header, image.bytes.data(), sizeof(header));
  const std::uint64_t scratch_bytes =
      header.bt_scratch_stride * static_cast<std::uint64_t>(pools);

  upmem::Dpu dpu;
  dpu.mram().write(0, image.bytes);
  dpu.mram().write(header.bt_scratch_off,
                   std::vector<std::uint8_t>(scratch_bytes, 0xA5));
  NwDpuProgram program(pool_config, KernelVariant::kAsm, path);
  dpu.launch(program, pool_config.pools, pool_config.tasklets_per_pool);
  std::vector<std::uint8_t> region(scratch_bytes);
  dpu.mram().read(header.bt_scratch_off, region);
  return region;
}

// The bank bytes agree too, not only the outputs, on a dirty bank: the fast
// path writes BT rows in place, so every byte the reference writes — the
// out-of-band and peeled nibbles, an odd band's pad nibble, the 8-byte
// rounding — must be written on every anti-diagonal, or stale bytes would
// survive where the reference leaves zeros. One batch spreads pairs over six
// pools; the other has one pool align a long pair, then a short one over
// the long pair's rows.
TEST(KernelFastPathTest, BtScratchBytesAgreeOnDirtyBank) {
  Xoshiro256 rng(11);
  data::ErrorModel errors;
  errors.error_rate = 0.10;
  std::vector<std::pair<std::string, std::string>> spread;
  for (int p = 0; p < 8; ++p) {
    const std::string a = data::random_dna(200 + rng.below(1800), rng);
    spread.emplace_back(a, data::mutate(a, errors, rng));
  }
  const std::string long_a = data::random_dna(5000, rng);
  const std::string short_a = data::random_dna(700, rng);
  std::vector<std::pair<std::string, std::string>> long_then_short = {
      {long_a, data::mutate(long_a, errors, rng)},
      {short_a, data::mutate(short_a, errors, rng)}};

  for (const std::int64_t band : {9, 127, 128}) {
    for (const auto& [pairs, pools] :
         {std::pair{&spread, 6}, std::pair{&long_then_short, 1}}) {
      const std::string tag = "w=" + std::to_string(band) +
                              " pools=" + std::to_string(pools);
      const auto scalar =
          bt_region_after_launch(*pairs, band, pools, SimPath::kScalar);
      ASSERT_NE(scalar, std::vector<std::uint8_t>(scalar.size(), 0xA5)) << tag;
      for (const SimPath path : {SimPath::kDense, SimPath::kAuto}) {
        const auto got = bt_region_after_launch(*pairs, band, pools, path);
        ASSERT_EQ(got.size(), scalar.size()) << tag;
        std::size_t first_diff = got.size();
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (got[i] != scalar[i]) {
            first_diff = i;
            break;
          }
        }
        EXPECT_EQ(first_diff, got.size())
            << tag << " " << sim_path_name(path) << ": first differing byte";
      }
    }
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
