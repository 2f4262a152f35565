// Equivalence of the simulator's kernel execution paths (SimPath): the
// branchy scalar reference and the band runs behind kAuto, in every copy of
// the band sweep the CPU runs (portable, AVX2, AVX-512), must produce
// bit-identical scores, CIGARs, modeled pool cycles, DMA bytes and bank bytes
// on every input. This is the contract that lets the fast path exist at all
// — host execution strategy is invisible to every modeled number (DESIGN.md
// "Simulator fast path").
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
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

/// Asserts every per-pair observable is identical across the two paths.
void expect_paths_agree(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const PimAlignerConfig& config, const char* tag) {
  const auto scalar = run_with_path(pairs, config, SimPath::kScalar);
  const auto fast = run_with_path(pairs, config, SimPath::kAuto);
  ASSERT_EQ(scalar.size(), pairs.size()) << tag;
  ASSERT_EQ(fast.size(), pairs.size()) << tag;

  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const PairOutput& got = fast[p];
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

// Every copy of the band sweep the build carries and this CPU runs,
// narrowest first: the portable one always.
std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas;
  for (const simd::Isa isa :
       {simd::Isa::kPortable, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (isa <= simd::auto_isa()) isas.push_back(isa);
  }
  return isas;
}

template <typename Lane>
struct LaneBands;

// A pair's band between anti-diagonals as compute_band keeps it for a band
// run: the four band arrays between kNegInf sentinels, two decoded windows
// (b's reversed) between simd::kWindowPad junk bytes, the rows a run may
// write followed by a canary, the lo staging buffer, the most anti-diagonals
// the run may sweep and the steering state.
struct RunCase {
  static constexpr std::int64_t kPad = simd::kWindowPad;
  std::int64_t m = 0, n = 0, w = 0;
  std::vector<align::Score> h0, h1, iv, dv;  // w + 2 slots each
  std::vector<std::uint8_t> a, b;  // kPad, the window's codes, kPad
  std::int64_t a_first = 0, a_end = 0, b_first = 0, b_end = 0;
  bool traceback = false;
  std::vector<std::uint8_t> rows;  // rows_left rows, then the canary
  std::size_t canary_bytes = 0;
  std::int64_t row_bytes = 0, rows_left = 0;
  std::vector<std::uint32_t> lo_buf;  // its size is the capacity
  std::uint32_t lo_staged = 0;
  std::int64_t max_steps = 0;
  std::int64_t s = 0, lo = 0, lo1 = 0, lo2 = 0;
  std::int64_t steps = 0;

  // a[i]'s code; b's window holds base b_end - 1 first.
  std::uint8_t a_code(std::int64_t i) const {
    return a[static_cast<std::size_t>(kPad + i - a_first)];
  }
  std::uint8_t b_code(std::int64_t j) const {
    return b[static_cast<std::size_t>(kPad + b_end - 1 - j)];
  }

  // The band's rows inside the matrix on anti-diagonal s.
  std::int64_t i_min() const { return std::max({lo, s - n, std::int64_t{0}}); }
  std::int64_t i_max() const { return std::min({lo + w - 1, m, s}); }

  // The run over `bands`, this case's band in Lane lanes.
  template <typename Lane>
  simd::BandRun<Lane> state(LaneBands<Lane>& bands) {
    const align::Scoring sc = align::default_scoring();
    simd::BandRun<Lane> r{};
    r.m = m;
    r.n = n;
    r.w = w;
    r.h[0] = bands.slot0(0);
    r.h[1] = bands.slot0(1);
    r.iv = bands.slot0(2);
    r.dv = bands.slot0(3);
    r.offset = bands.offset;
    r.a = {a.data() + kPad, a_first, a_end};
    r.b = {b.data() + kPad, b_first, b_end};
    r.traceback = traceback;
    r.bt_rows = rows.data();
    r.bt_bytes = row_bytes;
    r.rows_left = rows_left;
    r.lo_buf = lo_buf.data();
    r.lo_capacity = static_cast<std::uint32_t>(lo_buf.size());
    r.max_steps = max_steps;
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

/// A RunCase's four band arrays (H even, H odd, I, D) as a run over `Lane`
/// lanes sees them: w slots between kPad slots of the lane's sentinel (the
/// one sentinel slot of the WRAM arrays for 32-bit lanes, simd::kBandPad
/// for 16-bit ones), each real value less `offset` and kNegInf mapped to
/// the lane's sentinel. A value derived from the sentinel keeps its
/// distance from it both ways, so back() recovers the 32-bit band exactly.
template <typename Lane>
struct LaneBands {
  static constexpr bool kNarrow = sizeof(Lane) == 2;
  static constexpr std::int64_t kPad = kNarrow ? simd::kBandPad : 1;
  static constexpr Lane kSentinel = simd::kLaneNegInf<Lane>;
  std::vector<Lane> arrays[4];
  std::int64_t offset = 0;
  std::int64_t w = 0;

  LaneBands(const RunCase& c, std::int64_t band_offset)
      : offset(band_offset), w(c.w) {
    const std::vector<align::Score>* const bands[4] = {&c.h0, &c.h1, &c.iv,
                                                       &c.dv};
    for (int j = 0; j < 4; ++j) {
      arrays[j].assign(static_cast<std::size_t>(w + 2 * kPad), kSentinel);
      for (std::int64_t k = 0; k < w; ++k) {
        const align::Score v = (*bands[j])[static_cast<std::size_t>(k + 1)];
        arrays[j][static_cast<std::size_t>(kPad + k)] =
            v == align::kNegInf ? kSentinel : static_cast<Lane>(v - offset);
      }
    }
  }
  Lane* slot0(int j) { return arrays[j].data() + kPad; }

  // Write the band back into c's 32-bit arrays, sentinel slots included.
  void back(RunCase* c) const {
    std::vector<align::Score>* const bands[4] = {&c->h0, &c->h1, &c->iv,
                                                 &c->dv};
    for (int j = 0; j < 4; ++j) {
      for (std::int64_t k = -1; k <= w; ++k) {
        const std::int64_t v = arrays[j][static_cast<std::size_t>(kPad + k)];
        const bool real = !kNarrow || v > simd::kNegInf16 / 2;
        (*bands[j])[static_cast<std::size_t>(k + 1)] = static_cast<align::Score>(
            real ? v + offset : align::kNegInf + (v - kSentinel));
      }
    }
  }
  // Every pad slot still holds the sentinel.
  bool pads_intact() const {
    for (const std::vector<Lane>& band : arrays) {
      for (std::int64_t k = 0; k < kPad; ++k) {
        if (band[static_cast<std::size_t>(k)] != kSentinel ||
            band[static_cast<std::size_t>(kPad + w + k)] != kSentinel) {
          return false;
        }
      }
    }
    return true;
  }
};

// Why a run stops: before an anti-diagonal that needs work between runs,
// or after the pair's last.
enum Exit {
  kWindowA,  // a refill: a base of a the cells read is not in a's window
  kWindowB,  // likewise for b
  kSteps,    // max_steps anti-diagonals were swept: the R-stop
  kRows,     // row s is not among the rows left in the chunk
  kLoBuf,    // the lo buffer is full: a flush is due
  kPairEnd,  // anti-diagonal m + n was swept
  kExits
};

const char* const kExitNames[kExits] = {"window a", "window b", "steps",
                                        "rows",     "lo_buf",   "pair end"};

/// The conditions anti-diagonal c.s fails before it is swept, one bit per
/// Exit. A window fails as SeqWindow::ensure refills: when the anti-
/// diagonal's range of bases, clamped to the sequence, is not empty and not
/// inside the window.
unsigned failed_conditions(const RunCase& c) {
  auto misses = [](std::int64_t first, std::int64_t last,
                   std::int64_t win_first, std::int64_t win_end) {
    return first <= last && (first < win_first || last >= win_end);
  };
  const std::int64_t i_min = c.i_min();
  const std::int64_t i_max = c.i_max();
  const bool failed[kExits] = {
      misses(std::max<std::int64_t>(i_min - 1, 0), i_max - 1, c.a_first,
             c.a_end),
      misses(std::max<std::int64_t>(c.s - i_max - 1, 0), c.s - i_min - 1,
             c.b_first, c.b_end),
      c.steps >= c.max_steps,
      c.traceback && c.steps >= c.rows_left,
      c.traceback && c.lo_staged == c.lo_buf.size(),
      false,
  };
  unsigned bits = 0;
  for (int e = 0; e < kExits; ++e) bits |= failed[e] ? 1u << e : 0u;
  return bits;
}

/// Step c's anti-diagonals one at a time with the scalar kernel's
/// recurrences and tie-breaks (PairAligner::compute_diag_scalar), but
/// without its in-place carries: every slot is computed from copies of the
/// band as it stood before the anti-diagonal, kNegInf past its edges. Per
/// anti-diagonal: stage lo; give the cells inside the matrix their peeled
/// boundary values or their recurrence, and every other slot kNegInf; write
/// the whole BT row from the slots' codes; steer with adaptive_move_down;
/// stop after the pair's last anti-diagonal. Returns the conditions it
/// stopped on.
unsigned step_reference(RunCase& c) {
  using align::Score;
  const align::Scoring sc = align::default_scoring();
  for (;; ++c.s, ++c.steps) {
    if (const unsigned failed = failed_conditions(c)) return failed;
    const std::int64_t i_min = c.i_min();
    const std::int64_t i_max = c.i_max();
    if (c.traceback) c.lo_buf[c.lo_staged++] = static_cast<std::uint32_t>(c.lo);

    // Slot k of a band array sits at index k + 1, between the sentinels.
    std::vector<Score>& h_cur = (c.s & 1) ? c.h1 : c.h0;
    const std::vector<Score> h_prev = (c.s & 1) ? c.h0 : c.h1;
    const std::vector<Score> h_prev2 = h_cur;
    const std::vector<Score> i_prev = c.iv;
    const std::vector<Score> d_prev = c.dv;
    auto at = [&](const std::vector<Score>& band, std::int64_t k) {
      return k < 0 || k >= c.w ? align::kNegInf
                               : band[static_cast<std::size_t>(k + 1)];
    };
    const std::int64_t shift1 = c.lo - c.lo1;
    const std::int64_t shift2 = c.lo - c.lo2;
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(c.w), 0);
    for (std::int64_t k = 0; k < c.w; ++k) {
      const std::int64_t i = c.lo + k;
      const std::int64_t j = c.s - i;
      Score h = align::kNegInf;
      Score new_i = align::kNegInf;
      Score new_d = align::kNegInf;
      if (i >= i_min && i <= i_max) {
        if (i == 0 && j == 0) {
          h = 0;
        } else if (i == 0) {
          h = -sc.gap_cost(static_cast<std::uint64_t>(j));
          new_d = h;
        } else if (j == 0) {
          h = -sc.gap_cost(static_cast<std::uint64_t>(i));
          new_i = h;
        } else {
          const Score i_opn = at(h_prev, k + shift1 - 1) - sc.open_extend();
          const Score i_ext = at(i_prev, k + shift1 - 1) - sc.gap_extend;
          const Score d_opn = at(h_prev, k + shift1) - sc.open_extend();
          const Score d_ext = at(d_prev, k + shift1) - sc.gap_extend;
          new_i = std::max(i_opn, i_ext);
          new_d = std::max(d_opn, d_ext);
          const bool equal = c.a_code(i - 1) == c.b_code(j - 1);
          const Score h_diag = at(h_prev2, k + shift2 - 1) + sc.sub(equal);
          std::uint8_t origin;
          if (h_diag >= new_i && h_diag >= new_d) {
            h = h_diag;
            origin = equal ? align::bt::kOriginDiagMatch
                           : align::bt::kOriginDiagMismatch;
          } else if (new_i >= new_d) {
            h = new_i;
            origin = align::bt::kOriginI;
          } else {
            h = new_d;
            origin = align::bt::kOriginD;
          }
          codes[static_cast<std::size_t>(k)] =
              align::bt::make(origin, i_opn >= i_ext, d_opn >= d_ext);
        }
      }
      h_cur[static_cast<std::size_t>(k + 1)] = h;
      c.iv[static_cast<std::size_t>(k + 1)] = new_i;
      c.dv[static_cast<std::size_t>(k + 1)] = new_d;
    }
    if (c.traceback) {
      std::uint8_t* const row = c.rows.data() + c.steps * c.row_bytes;
      std::fill(row, row + c.row_bytes, 0);
      for (std::int64_t k = 0; k < c.w; ++k) {
        align::bt_store(row, static_cast<std::uint64_t>(k),
                        codes[static_cast<std::size_t>(k)]);
      }
    }

    if (c.s == c.m + c.n) {
      ++c.s;
      ++c.steps;
      return 1u << kPairEnd;
    }
    const bool empty = i_min > i_max;
    const bool down = align::adaptive_move_down(
        c.lo, c.s, c.m, c.n, c.w,
        empty ? align::kNegInf : at(h_cur, i_min - c.lo),
        empty ? align::kNegInf : at(h_cur, i_max - c.lo));
    c.lo2 = c.lo1;
    c.lo1 = c.lo;
    c.lo += down ? 1 : 0;
  }
}

/// A random band state aimed at stopping on `target`. The sequences are
/// shorter than the band, about as long or far longer, and the run starts
/// at the pair's start, near it, anywhere, or (aimed at the pair end) near
/// its end, so that runs sweep and stop on edge anti-diagonals: peels,
/// out-of-band slots, odd first slots and partial blocks. The aimed-at
/// window runs out within a few bases (or, one time in four, starts past
/// the first base the start needs), the step limit, the rows or the lo
/// buffer within a few anti-diagonals; every other exit holds to the pair's
/// end, but a 16-bit run's limit, simd::kNarrowRunSteps.
RunCase random_run(std::int64_t w, bool traceback, bool narrow, Exit target,
                   Xoshiro256& rng) {
  constexpr std::int64_t kFar = 300;
  auto below = [&](std::int64_t k) {
    return static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(k)));
  };
  auto length = [&]() -> std::int64_t {
    switch (below(4)) {
      case 0: return 1 + below(3);
      case 1: return 1 + below(w);
      case 2: return w + below(w);
      default: return 2 * kFar + below(kFar);
    }
  };
  RunCase c;
  c.w = w;
  c.traceback = traceback;
  for (auto* band : {&c.h0, &c.h1, &c.iv, &c.dv}) {
    band->assign(static_cast<std::size_t>(w) + 2, align::kNegInf);
    for (std::int64_t k = 1; k <= w; ++k) {
      // Small scores make ties common; one slot in eight is out of band.
      (*band)[static_cast<std::size_t>(k)] =
          rng.below(8) == 0 ? align::kNegInf
                            : static_cast<align::Score>(rng.below(41)) - 20;
    }
  }
  // Every exit but the pair end needs a pair that outlasts it.
  const bool long_pair = target != kPairEnd;
  c.m = long_pair && target != kWindowB ? 2 * kFar + below(kFar) : length();
  c.n = long_pair && target != kWindowA ? 2 * kFar + below(kFar) : length();
  switch (below(4)) {
    case 0: c.s = 0; break;
    case 1: c.s = below(w + 2); break;
    case 2: c.s = below(c.m + c.n + 1); break;
    default: c.s = c.m + c.n - below(w + 2); break;
  }
  c.s = std::clamp<std::int64_t>(c.s, 0, c.m + c.n - (long_pair ? kFar : 0));
  // The origins steering can reach: the band keeps a row with j <= n and
  // never passes row m or anti-diagonal s.
  const std::int64_t lo_min = std::max<std::int64_t>(0, c.s - c.n - (w - 1));
  const std::int64_t lo_max = std::min(c.s, c.m);
  c.lo = lo_min + below(lo_max - lo_min + 1);
  c.lo1 = std::max<std::int64_t>(c.lo - below(2), 0);
  c.lo2 = std::max<std::int64_t>(c.lo1 - below(2), 0);

  // Windows from at or before the first base the start reads to the end of
  // the sequence, or a few bases past the start's last one.
  auto window = [&](std::int64_t first, std::int64_t last,
                    std::int64_t length, bool aimed, std::int64_t* win_first,
                    std::int64_t* win_end, std::vector<std::uint8_t>* codes) {
    *win_first = std::max<std::int64_t>(first - below(4), 0);
    *win_end = length;
    if (aimed && below(4) == 0 && first <= last) {
      *win_first = first + 1 + below(3);
    } else if (aimed) {
      *win_end = std::min(length, std::max(first, last + 1) + below(12));
    }
    *win_end = std::max(*win_end, *win_first);
    codes->resize(static_cast<std::size_t>(*win_end - *win_first +
                                           2 * RunCase::kPad));
    for (auto& code : *codes) code = static_cast<std::uint8_t>(rng.below(4));
  };
  const std::int64_t i_min = c.i_min();
  const std::int64_t i_max = c.i_max();
  window(std::max<std::int64_t>(i_min - 1, 0), i_max - 1, c.m,
         target == kWindowA, &c.a_first, &c.a_end, &c.a);
  window(std::max<std::int64_t>(c.s - i_max - 1, 0), c.s - i_min - 1, c.n,
         target == kWindowB, &c.b_first, &c.b_end, &c.b);

  // Room for every anti-diagonal left, and a canary as large, so a run that
  // wrote past rows_left would hit the canary, not the heap.
  const std::int64_t diagonals = c.m + c.n + 1 - c.s;
  c.row_bytes = static_cast<std::int64_t>(
      align8(align::bt_bytes(static_cast<std::uint64_t>(w))));
  c.rows_left = target == kRows ? below(12) : diagonals;
  c.canary_bytes = static_cast<std::size_t>(diagonals * c.row_bytes);
  c.rows.assign(static_cast<std::size_t>(c.rows_left * c.row_bytes) +
                    c.canary_bytes,
                0xA5);
  const std::int64_t capacity =
      target == kLoBuf ? 128 : diagonals + 8 + below(8);
  c.lo_buf.assign(static_cast<std::size_t>(capacity), 0xFFFFFFFFu);
  c.lo_staged = static_cast<std::uint32_t>(
      target == kLoBuf ? capacity - below(12) : below(8));
  c.max_steps = target == kSteps ? below(12)
                : narrow         ? simd::kNarrowRunSteps
                                 : diagonals;
  return c;
}

/// Every trial of BandRunTest for one lane type on `isa`. A 16-bit run
/// starts from a band that lies within the bound simd::narrow_lanes proves:
/// its real values (at most 40 apart, under the spread of a run's start at
/// every width here) stored less a random offset, so that none lies more
/// than simd::kRebaseSlack from 0, and it sweeps at most
/// simd::kNarrowRunSteps anti-diagonals.
template <typename Lane>
void expect_runs_match_steps(simd::Isa isa, Xoshiro256& rng) {
  constexpr bool kNarrow = LaneBands<Lane>::kNarrow;
  const align::Scoring sc = align::default_scoring();
  for (const std::int64_t w : {2, 3, 9, 16, 17, 31, 128}) {
    if (kNarrow) {
      ASSERT_TRUE(simd::narrow_lanes(w, sc)) << "w=" << w;
    }
    for (const bool traceback : {false, true}) {
      int sole[kExits] = {};
      for (int trial = 0; trial < 16 * kExits; ++trial) {
        const Exit target = static_cast<Exit>(trial % kExits);
        if (!traceback && (target == kRows || target == kLoBuf)) continue;
        RunCase want = random_run(w, traceback, kNarrow, target, rng);
        RunCase got = want;
        const unsigned failed = step_reference(want);
        constexpr std::int64_t kShift = simd::kRebaseSlack - 20;
        LaneBands<Lane> bands(
            got, kNarrow ? static_cast<std::int64_t>(rng.below(2 * kShift + 1)) -
                               kShift
                         : 0);
        const std::string tag =
            std::string(kNarrow ? "16-bit " : "32-bit ") +
            (traceback ? "bt" : "score-only") + " w=" + std::to_string(w) +
            " trial " + std::to_string(trial) + " aimed at " +
            kExitNames[target] + " (m=" + std::to_string(want.m) +
            " n=" + std::to_string(want.n) + ")";
        if (kNarrow) {
          for (const std::vector<Lane>& band : bands.arrays) {
            for (const Lane v : band) {
              ASSERT_TRUE(v == simd::kNegInf16 ||
                          (v >= -simd::kRebaseSlack &&
                           v <= simd::kRebaseSlack))
                  << tag << ": a start outside the bound";
            }
          }
        }
        simd::BandRun<Lane> run = got.state(bands);
        got.steps = simd::band_run(run, isa);
        got.s = run.s;
        got.lo = run.lo;
        got.lo1 = run.lo1;
        got.lo2 = run.lo2;
        got.lo_staged = run.lo_staged;
        ASSERT_EQ(run.offset, bands.offset) << tag;
        ASSERT_TRUE(bands.pads_intact()) << tag;
        bands.back(&got);

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
                              << (traceback ? " bt" : " score-only")
                              << (kNarrow ? " 16-bit" : " 32-bit");
      }
    }
  }
}

// Every copy of the band sweep, over 32-bit and over 16-bit lanes, against
// step_reference's per-cell steps, from random band states at widths from 2
// up, with and without remainder lanes and with an odd pad nibble,
// score-only and with traceback. The step count, the steering state, the
// four band arrays (sentinels included; a 16-bit band mapped back to scores,
// its pads untouched), the staged lo values and every row byte up to and
// including the canary after the last row must match, and each exit must
// stop some run on its own.
class BandRunTest : public ::testing::TestWithParam<simd::Isa> {};

TEST_P(BandRunTest, MatchesPerDiagonalSteps) {
  const simd::Isa isa = GetParam();
  if (isa > simd::auto_isa()) {
    GTEST_SKIP() << simd::isa_name(isa) << " is not in this build or CPU";
  }
  Xoshiro256 rng(20261019);
  expect_runs_match_steps<std::int32_t>(isa, rng);
  expect_runs_match_steps<std::int16_t>(isa, rng);
}

INSTANTIATE_TEST_SUITE_P(, BandRunTest,
                         ::testing::Values(simd::Isa::kPortable,
                                           simd::Isa::kAvx2,
                                           simd::Isa::kAvx512),
                         [](const ::testing::TestParamInfo<simd::Isa>& info) {
                           return std::string(simd::isa_name(info.param));
                         });

// kAuto runs the widest copy of the sweep the CPU supports; on x86-64 the
// build carries all three.
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
// keep every anti-diagonal inside one masked block, 9 and 17 leave one
// remainder lane on a full 4- or 8-lane band, 32 and 33 run whole 16-lane
// blocks plus a remainder lane, and at each width the descending walk reads
// the band arrays' low sentinels and the ascending walk their high ones.
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
// staging flushes and multi-chunk BT DMA on both paths. An odd band packs the
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

/// The bank a launch leaves: the readback region (every pair's result,
/// cycle stamps included, and CIGAR runs) followed by the whole BT scratch
/// region (every pool's lo words and rows), after one NwDpuProgram launch of
/// `pairs` under `path` with `isa` as its vector sweep, on a bank whose
/// scratch region held 0xA5 before the launch, as a reused bank holds stale
/// bytes.
std::vector<std::uint8_t> bank_after_launch(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    std::int64_t band, bool traceback, int pools, SimPath path, simd::Isa isa,
    const align::Scoring& scoring) {
  std::vector<std::string_view> seqs;
  DpuBatchInput batch;
  for (std::uint32_t p = 0; p < pairs.size(); ++p) {
    seqs.push_back(pairs[p].first);
    seqs.push_back(pairs[p].second);
    batch.pairs.push_back({2 * p, 2 * p + 1, p});
  }
  AlignConfig align;
  align.scoring = scoring;
  align.band_width = band;
  align.traceback = traceback;
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
  NwDpuProgram program(pool_config, KernelVariant::kAsm, path, nullptr, isa);
  dpu.launch(program, pool_config.pools, pool_config.tasklets_per_pool);
  std::vector<std::uint8_t> bank(image.readback_bytes + scratch_bytes);
  dpu.mram().read(image.result_off,
                  std::span(bank).first(image.readback_bytes));
  dpu.mram().read(header.bt_scratch_off,
                  std::span(bank).subspan(image.readback_bytes));
  return bank;
}

/// The first byte at which `got` differs from `want`, or want.size().
std::size_t first_difference(const std::vector<std::uint8_t>& got,
                             const std::vector<std::uint8_t>& want) {
  const auto [diff, _] = std::mismatch(want.begin(), want.end(), got.begin());
  return static_cast<std::size_t>(diff - want.begin());
}

/// The bank after kAuto on every copy of the sweep the CPU runs equals the
/// scalar reference's, byte for byte.
void expect_banks_agree(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    std::int64_t band, bool traceback, int pools, const std::string& tag,
    const align::Scoring& scoring = align::default_scoring()) {
  const auto scalar = bank_after_launch(pairs, band, traceback, pools,
                                        SimPath::kScalar, simd::auto_isa(),
                                        scoring);
  if (traceback) {
    ASSERT_NE(scalar, std::vector<std::uint8_t>(scalar.size(), 0xA5)) << tag;
  }
  for (const simd::Isa isa : supported_isas()) {
    const auto got = bank_after_launch(pairs, band, traceback, pools,
                                       SimPath::kAuto, isa, scoring);
    ASSERT_EQ(got.size(), scalar.size()) << tag;
    EXPECT_EQ(first_difference(got, scalar), got.size())
        << tag << " auto/" << simd::isa_name(isa)
        << ": first differing byte";
  }
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
      expect_banks_agree(*pairs, band, /*traceback=*/true, pools,
                         "w=" + std::to_string(band) +
                             " pools=" + std::to_string(pools));
    }
  }
}

// Pairs whose band is never wholly interior, so every anti-diagonal peels a
// boundary cell or holds out-of-band slots: the shorter side is at most
// w - 2 (a band of w rows then always crosses i = 0 or m, or j = 0 or n).
// 1 bp pairs, pairs shorter than the band on both sides, m much shorter than
// n and much longer, at odd and even widths. Their outputs agree across the
// paths, and the bank a launch leaves agrees on every copy of the sweep,
// with traceback and score-only.
TEST(KernelFastPathTest, BandNeverInteriorAgreesOnEveryIsa) {
  Xoshiro256 rng(23);
  data::ErrorModel errors;
  errors.error_rate = 0.15;
  for (const std::int64_t band : {2, 3, 17, 32, 33, 127, 128}) {
    const auto size = [](std::int64_t bases) {
      return static_cast<std::size_t>(std::max<std::int64_t>(bases, 1));
    };
    const std::string shorter = data::random_dna(size(band - 2), rng);
    const std::string quarter = data::random_dna(size(1 + band / 4), rng);
    const std::string longer = data::random_dna(size(10 * band + 40), rng);
    const std::vector<std::pair<std::string, std::string>> pairs = {
        {"A", "A"},
        {"A", "C"},
        {"G", data::random_dna(size(band / 2 + 3), rng)},
        {data::random_dna(size(band / 2 + 3), rng), "T"},
        {shorter, data::mutate(shorter, errors, rng)},
        {quarter, longer},
        {longer, quarter},
    };
    for (const bool traceback : {true, false}) {
      PimAlignerConfig config;
      config.nr_ranks = 1;
      config.align.band_width = band;
      config.align.traceback = traceback;
      const std::string tag = "never interior w=" + std::to_string(band) +
                              (traceback ? "" : " score-only");
      expect_paths_agree(pairs, config, tag.c_str());
      expect_banks_agree(pairs, band, traceback, /*pools=*/3, tag);
    }
  }
}

// Scores far outside the 16-bit range through 16-bit band runs, which
// rebase the band between runs: an identical 30 kb pair (score 60000), a
// 100 x 20000 pair (below -39000), unrelated 5 kb pairs (scores below
// -2048, so their bands are rebased downwards) and 1-50 bp pairs (a run or
// two from the pair's start). On
// every copy of the sweep, with and without traceback, the outputs and the
// dirty bank's readback and BT bytes equal the scalar reference's.
TEST(KernelFastPathTest, NarrowLanesRebaseScoresPastSixteenBits) {
  ASSERT_TRUE(simd::narrow_lanes(128, align::default_scoring()));
  Xoshiro256 rng(26);
  const std::string identical = data::random_dna(30000, rng);
  const std::string shorter = data::random_dna(100, rng);
  std::vector<std::pair<std::string, std::string>> pairs = {
      {identical, identical}, {shorter, data::random_dna(20000, rng)}};
  for (int p = 0; p < 3; ++p) {
    pairs.emplace_back(data::random_dna(5000, rng),
                       data::random_dna(5000, rng));
  }
  data::ErrorModel errors;
  errors.error_rate = 0.2;
  for (std::size_t length = 1; length <= 50; length += 7) {
    const std::string a = data::random_dna(length, rng);
    pairs.emplace_back(a, data::mutate(a, errors, rng));
  }
  for (const bool traceback : {true, false}) {
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.align.traceback = traceback;
    const std::string tag = std::string("past 16 bits") +
                            (traceback ? "" : " score-only");
    const auto scalar = run_with_path(pairs, config, SimPath::kScalar);
    ASSERT_EQ(scalar.size(), pairs.size());
    EXPECT_EQ(scalar[0].score, 60000) << tag;
    EXPECT_LT(scalar[1].score, -39000) << tag;
    for (std::size_t p = 2; p < 5; ++p) {
      EXPECT_LT(scalar[p].score, -2 * simd::kRebaseSlack)
          << tag << " pair " << p;
    }
    expect_paths_agree(pairs, config, tag.c_str());
    expect_banks_agree(pairs, 128, traceback, /*pools=*/2, tag);
  }
}

// A (w, scoring) outside the 16-bit bound (gap_extend = 200: a spread of
// 51260 at w = 128) runs the 32-bit instantiation of the same sweep, and it
// agrees with the scalar reference on every copy.
TEST(KernelFastPathTest, ScoringOutsideTheBoundSweepsThirtyTwoBitLanes) {
  align::Scoring wide;
  wide.gap_extend = 200;
  ASSERT_FALSE(simd::narrow_lanes(128, wide));
  Xoshiro256 rng(200);
  data::ErrorModel errors;
  errors.error_rate = 0.15;
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int p = 0; p < 4; ++p) {
    const std::string a = data::random_dna(300 + rng.below(1500), rng);
    pairs.emplace_back(a, data::mutate(a, errors, rng));
  }
  pairs.emplace_back("A", "ACGTACGT");
  for (const bool traceback : {true, false}) {
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.align.scoring = wide;
    config.align.traceback = traceback;
    const std::string tag =
        std::string("gap_extend 200") + (traceback ? "" : " score-only");
    expect_paths_agree(pairs, config, tag.c_str());
    expect_banks_agree(pairs, 128, traceback, /*pools=*/2, tag, wide);
  }
}

// narrow_lanes follows the bound: under default scoring a run's lowest real
// value, anchor - (spread + 3086) with spread = 6·(w - 1) + 6, must stay
// above kNegInf16 + 2 from an anchor at -1024, which holds up to w = 2045
// and not at 2046; a large penalty or a negative one sends any band to
// 32-bit lanes.
TEST(KernelFastPathTest, NarrowLanesFollowTheBound) {
  const align::Scoring sc = align::default_scoring();
  for (const std::int64_t w : {1, 2, 128, 384, 2045}) {
    EXPECT_TRUE(simd::narrow_lanes(w, sc)) << "w=" << w;
  }
  EXPECT_FALSE(simd::narrow_lanes(2046, sc));
  EXPECT_FALSE(simd::narrow_lanes(1 << 20, sc));
  align::Scoring wide;
  wide.gap_extend = 200;
  EXPECT_FALSE(simd::narrow_lanes(2, wide));
  align::Scoring negative;
  negative.mismatch = -1;
  EXPECT_FALSE(simd::narrow_lanes(128, negative));
}

// DbSession rounds — compact session pair entries, the database resident at
// the top of the bank, score-only — agree across the paths too: the top-K
// hits of an all-vs-all sweep, and per-pair scores and pool cycles.
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
  const PathRun got = run(SimPath::kAuto);
  ASSERT_EQ(got.hits.size(), scalar.hits.size());
  for (std::size_t h = 0; h < got.hits.size(); ++h) {
    EXPECT_EQ(got.hits[h].a, scalar.hits[h].a) << "hit " << h;
    EXPECT_EQ(got.hits[h].b, scalar.hits[h].b) << "hit " << h;
    EXPECT_EQ(got.hits[h].score, scalar.hits[h].score) << "hit " << h;
  }
  ASSERT_EQ(got.outputs.size(), pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const PairOutput& want = scalar.outputs[p];
    EXPECT_EQ(got.outputs[p].ok, want.ok) << "pair " << p;
    EXPECT_EQ(got.outputs[p].score, want.score) << "pair " << p;
    EXPECT_EQ(got.outputs[p].dpu_pool_cycles, want.dpu_pool_cycles)
        << "pair " << p;
  }
}

}  // namespace
}  // namespace pimnw::core
