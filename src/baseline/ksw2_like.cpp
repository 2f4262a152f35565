#include "baseline/ksw2_like.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "align/bt_code.hpp"
#include "align/traceback.hpp"
#include "dna/alphabet.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace pimnw::baseline {

using align::AlignResult;
using align::kNegInf;
using align::Score;
using align::Scoring;

AlignResult ksw2_align(std::string_view a, std::string_view b,
                       const Scoring& scoring, const Ksw2Options& options) {
  const std::int64_t m = static_cast<std::int64_t>(a.size());
  const std::int64_t n = static_cast<std::int64_t>(b.size());
  const std::int64_t w = options.band_width;
  PIMNW_CHECK_MSG(w >= 1, "band width must be >= 1");

  AlignResult result;
  const std::int64_t d_lo = -(w / 2);
  const std::int64_t d_hi = d_lo + w - 1;
  if (n - m < d_lo || n - m > d_hi) {
    return result;  // corner outside the static band
  }

  // Query profile: qp[c][j] = sub(b_j, base c) for each of the 4 codes —
  // the inner loop then indexes by the current row's base instead of
  // comparing characters (minimap2's trick to keep the loop branch-free).
  std::vector<Score> qp(static_cast<std::size_t>(4 * (n + 1)));
  for (int c = 0; c < 4; ++c) {
    Score* row = qp.data() + static_cast<std::size_t>(c) *
                                 static_cast<std::size_t>(n + 1);
    for (std::int64_t j = 1; j <= n; ++j) {
      const dna::Code code = dna::encode_base(b[static_cast<std::size_t>(j - 1)]);
      PIMNW_CHECK_MSG(code != 0xff, "non-ACGT base in target");
      row[j] = scoring.sub(code == c);
    }
  }

  // Row-major band, offset k = j - i - d_lo in [0, w).
  std::vector<Score> h_row(static_cast<std::size_t>(w), kNegInf);
  std::vector<Score> e_row(static_cast<std::size_t>(w), kNegInf);  // I matrix

  std::vector<std::uint8_t> bt;
  if (options.traceback) {
    bt.assign(align::bt_bytes(static_cast<std::uint64_t>(m) *
                              static_cast<std::uint64_t>(w)),
              0);
  }

  {
    const std::int64_t j_hi = std::min<std::int64_t>(n, d_hi);
    for (std::int64_t j = std::max<std::int64_t>(0, d_lo); j <= j_hi; ++j) {
      h_row[static_cast<std::size_t>(j - d_lo)] =
          j == 0 ? 0 : -scoring.gap_cost(static_cast<std::uint64_t>(j));
    }
  }

  const Score open_ext = scoring.gap_open + scoring.gap_extend;
  const Score gap_ext = scoring.gap_extend;
  std::uint64_t cells = 0;

  for (std::int64_t i = 1; i <= m; ++i) {
    const std::int64_t j_lo = std::max<std::int64_t>(0, i + d_lo);
    const std::int64_t j_hi = std::min<std::int64_t>(n, i + d_hi);
    if (j_lo > j_hi) return result;

    const dna::Code code_a =
        dna::encode_base(a[static_cast<std::size_t>(i - 1)]);
    PIMNW_CHECK_MSG(code_a != 0xff, "non-ACGT base in query");
    const Score* prof = qp.data() + static_cast<std::size_t>(code_a) *
                                        static_cast<std::size_t>(n + 1);

    Score h_left = kNegInf;
    Score f = kNegInf;  // D matrix carry (KSW2 naming)
    Score* h = h_row.data();
    Score* e = e_row.data();

    cells += static_cast<std::uint64_t>(j_hi - j_lo + 1);

    for (std::int64_t j = j_lo; j <= j_hi; ++j) {
      const std::int64_t k = j - i - d_lo;
      if (j == 0) {
        const Score boundary = -scoring.gap_cost(static_cast<std::uint64_t>(i));
        h_left = boundary;
        f = kNegInf;
        h[k] = boundary;
        e[k] = boundary;
        --cells;
        continue;
      }
      const Score h_diag = h[k];  // H(i-1, j-1): offsets shift by +1 per row
      const Score h_up = k + 1 < w ? h[k + 1] : kNegInf;
      const Score e_up = k + 1 < w ? e[k + 1] : kNegInf;

      const Score e_ext = e_up - gap_ext;
      const Score e_opn = h_up - open_ext;
      const bool e_open = e_opn >= e_ext;
      const Score ev = e_open ? e_opn : e_ext;

      const Score f_ext = f - gap_ext;
      const Score f_opn = h_left - open_ext;
      const bool f_open = f_opn >= f_ext;
      f = f_open ? f_opn : f_ext;

      const Score sub = prof[j];
      const Score diag = h_diag + sub;
      // Branch-light three-way max with the project-wide tie order
      // (diagonal, then I, then D).
      Score best = diag;
      std::uint8_t origin = sub > 0 ? align::bt::kOriginDiagMatch
                                    : align::bt::kOriginDiagMismatch;
      if (ev > best) {
        best = ev;
        origin = align::bt::kOriginI;
      }
      if (f > best) {
        best = f;
        origin = align::bt::kOriginD;
      }

      if (options.traceback) {
        align::bt_store(bt.data(),
                        static_cast<std::uint64_t>(i - 1) *
                                static_cast<std::uint64_t>(w) +
                            static_cast<std::uint64_t>(k),
                        align::bt::make(origin, e_open, f_open));
      }

      h_left = best;
      h[k] = best;
      e[k] = ev;
    }
    for (std::int64_t k = 0; k < j_lo - i - d_lo; ++k) {
      h[k] = kNegInf;
      e[k] = kNegInf;
    }
    for (std::int64_t k = j_hi - i - d_lo + 1; k < w; ++k) {
      h[k] = kNegInf;
      e[k] = kNegInf;
    }
  }

  const Score final_score = h_row[static_cast<std::size_t>(n - m - d_lo)];
  result.cells = cells;
  if (final_score <= kNegInf / 2) return result;
  result.score = final_score;
  result.reached_end = true;

  if (options.traceback) {
    result.cigar = align::traceback_affine(
        m, n, [&](std::int64_t i, std::int64_t j) -> std::uint8_t {
          const std::int64_t k = j - i - d_lo;
          PIMNW_DCHECK(k >= 0 && k < w);
          return align::bt_load(bt.data(),
                                static_cast<std::uint64_t>(i - 1) *
                                        static_cast<std::uint64_t>(w) +
                                    static_cast<std::uint64_t>(k));
        });
  }
  return result;
}

double measure_local_cells_per_second(std::uint64_t target_cells) {
  Xoshiro256 rng(0xCA11B8A7E);
  const std::size_t len = 4000;
  std::string a(len, 'A');
  std::string b(len, 'A');
  for (std::size_t i = 0; i < len; ++i) {
    a[i] = dna::decode_base(static_cast<dna::Code>(rng.below(4)));
    b[i] = rng.chance(0.95) ? a[i]
                            : dna::decode_base(
                                  static_cast<dna::Code>(rng.below(4)));
  }
  Ksw2Options options;
  options.band_width = 256;
  options.traceback = true;
  std::uint64_t cells = 0;
  Stopwatch watch;
  while (cells < target_cells) {
    const align::AlignResult r =
        ksw2_align(a, b, align::default_scoring(), options);
    cells += r.cells;
  }
  const double seconds = watch.seconds();
  return seconds > 0 ? static_cast<double>(cells) / seconds : 0.0;
}

}  // namespace pimnw::baseline
