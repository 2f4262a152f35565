// The vector band sweep, written once over GCC vector types and templated on
// its lane count N. Like minimap2's KSW2 the build compiles this one source
// once per ISA, with the ISA's flags and PIMNW_SWEEP_LANES, and each copy
// exports two functions: vector_sweep<N>, one anti-diagonal, and
// vector_band_run<N>, a run of steady ones (N = 8: AVX2; N = 16: AVX-512
// F/BW/VL). All else has internal linkage and calls no out-of-line inline
// function (align::adaptive_move_down is always inlined), so the linker
// cannot hand one ISA's copy of a function to another ISA's caller.
// scripts/verify.sh checks each object's symbols for that.
#include <immintrin.h>

#include "align/adaptive_steering.hpp"
#include "core/kernel_simd.hpp"

namespace pimnw::core::simd {
namespace {

/// The ISA's N epi32 lanes (comparisons yield -1/0 masks of the same type)
/// and the two steps GCC 12 would scalarize, one intrinsic each: bases(p)
/// widens p[0, N); top_bits(v) has bit b = bit 7 of byte b.
template <int N>
struct Ops;

#if PIMNW_SWEEP_LANES == 16
template <>
struct Ops<16> {
  typedef align::Score V __attribute__((vector_size(64)));
  // The all-lanes mask form: GCC 12's unmasked _mm512_cvtepu8_epi32 trips
  // -Wuninitialized on its undefined pass-through operand.
  static V bases(const std::uint8_t* p) {
    return V(_mm512_maskz_cvtepu8_epi32(
        0xFFFF, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
  }
  static std::uint64_t top_bits(V v) {
    return _mm512_movepi8_mask(__m512i(v));
  }
};
#else
template <>
struct Ops<8> {
  typedef align::Score V __attribute__((vector_size(32)));
  static V bases(const std::uint8_t* p) {
    return V(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  }
  static std::uint64_t top_bits(V v) {
    return static_cast<std::uint32_t>(_mm256_movemask_epi8(__m256i(v)));
  }
};
#endif

/// The scores the blocks add, broadcast to all N lanes from a DiagSpan's or
/// a BandRun's: once per sweep, or once per band run.
template <int N>
struct Scores {
  using V = typename Ops<N>::V;
  template <typename Source>
  explicit Scores(const Source& s)
      : match(V{} + s.match),
        neg_mismatch(V{} - s.mismatch),
        gap_extend(V{} + s.gap_extend),
        open_ext(V{} + s.open_ext) {}
  V match, neg_mismatch, gap_extend, open_ext;
};

/// Whole blocks of N lanes in the walk order (DiagSpan). A block stores N/2
/// BT bytes, so it starts on an even nibble; the lanes outside the blocks
/// (lane 0 on an odd nibble, the remainder) run the dense loop in walk order.
/// Always inlined, so a band run keeps its broadcast scores in registers.
template <int N, bool kTraceback>
__attribute__((always_inline)) inline void sweep(const DiagSpan& span,
                                                 const Scores<N>& k) {
  // A BT byte store may alias any memory but a local whose address never
  // escapes, so the blocks read a private copy: its pointers stay in
  // registers.
  const DiagSpan d = span;
  using V = typename Ops<N>::V;
  auto load = [](const align::Score* p) {
    V v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
  };

  auto max = [](V a, V b) { return a > b ? a : b; };

  // Lanes [t, t + N): every input is loaded before any output is stored.
  auto block = [&](std::int64_t t) __attribute__((always_inline)) {
    // I: vertical gap, extend vs open from the cell above; D: horizontal.
    const V i_opn = load(d.up_h + t) - k.open_ext;
    const V i_ext = load(d.up_i + t) - k.gap_extend;
    const V d_opn = load(d.left_h + t) - k.open_ext;
    const V d_ext = load(d.left_d + t) - k.gap_extend;
    const V new_i = max(i_opn, i_ext);
    const V new_d = max(d_opn, d_ext);
    const V equal = Ops<N>::bases(d.base_a + t) == Ops<N>::bases(d.base_b + t);
    const V h_diag = load(d.diag_h + t) + (equal ? k.match : k.neg_mismatch);
    const V gap_best = max(new_i, new_d);
    const V h = max(h_diag, gap_best);
    __builtin_memcpy(d.out_h + t, &h, sizeof h);
    __builtin_memcpy(d.out_i + t, &new_i, sizeof new_i);
    __builtin_memcpy(d.out_d + t, &new_d, sizeof new_d);
    if constexpr (kTraceback) {
      // The scalar reference's tie-breaks: the diagonal, then I, wins a tie,
      // and opening wins over extending. Code bit c of a lane goes to bit 7
      // of the lane's byte c, so the top bits hold lane u's code in bits
      // 4u..4u+3: the packed row. Bits 0-1 are the origin (a diagonal
      // mismatch or D; a gap), 2-3 the opens.
      const V diag_best = h_diag >= gap_best;
      const V origin_lo = ~(diag_best ? equal : new_i >= new_d);
      const V bits = (origin_lo & 0x80) | (~diag_best & 0x8000) |
                     ((i_opn >= i_ext) & 0x800000) |
                     ((d_opn >= d_ext) & INT32_MIN);
      const std::uint64_t packed = Ops<N>::top_bits(bits);
      __builtin_memcpy(d.bt_row + ((d.bt_first + t) >> 1), &packed, N / 2);
    }
  };

  const std::int64_t head = kTraceback && d.len > 0 ? (d.bt_first & 1) : 0;
  const std::int64_t tail = head + (d.len - head) / N * N;
  if (d.descending) {
    if (tail < d.len) diag_update_dense(span, tail, d.len);
    for (std::int64_t t = tail - N; t >= head; t -= N) block(t);
    if (head > 0) diag_update_dense(span, 0, head);
  } else {
    if (head > 0) diag_update_dense(span, 0, head);
    for (std::int64_t t = head; t < tail; t += N) block(t);
    if (tail < d.len) diag_update_dense(span, tail, d.len);
  }
}

/// Rows ahead of the sweep whose cache lines a band run prefetches. The
/// rows lie in a 64 KiB chunk that was zero-filled when the pair first
/// asked for it, yet the prefetch still pays: on a 4-vCPU AVX-512 Xeon VM,
/// two series of 5 alternating 30 s long_cigar pairs at seed 1 read median
/// aln/s 1406 and 1469 with it, 1312 and 1406 without (-6.7% and -4.3%);
/// it won 9 of the 10 pairs.
constexpr std::int64_t kPrefetchRows = 4;

/// BandRun's loop: per steady anti-diagonal, compute_band's general path
/// (core/dpu_kernel.cpp) with its steady case folded in: i_min = lo,
/// i_max = lo + w - 1, no refill, no peel, ka = 0 and len = w.
template <int N, bool kTraceback>
std::int64_t run(BandRun& state) {
  const BandRun r = state;  // private, as in sweep(): no BT store aliases it
  const Scores<N> k(r);
  const std::int64_t m = r.m;
  const std::int64_t n = r.n;
  const std::int64_t w = r.w;
  std::int64_t s = r.s;
  std::int64_t lo = r.lo;
  std::int64_t lo1 = r.lo1;
  std::int64_t lo2 = r.lo2;
  std::uint32_t staged = r.lo_staged;
  std::uint8_t* row = r.bt_rows;
  // What every anti-diagonal of the run shares: the whole band from slot 0
  // (bt_first 0), and the scores the dense edge lanes read.
  DiagSpan band{};
  band.out_i = r.iv;
  band.out_d = r.dv;
  band.bt_bytes = r.bt_bytes;
  band.len = w;
  band.match = r.match;
  band.mismatch = r.mismatch;
  band.gap_extend = r.gap_extend;
  band.open_ext = r.open_ext;
  const auto tail_bytes = static_cast<std::size_t>(r.bt_bytes - w / 2);
  std::int64_t steps = 0;
  for (;; ++s, ++steps) {
    const std::int64_t bottom = lo + w - 1;  // the band's last row
    const bool steady =
        lo >= 1 && lo >= s - n && bottom <= m && bottom < s &&
        lo - 1 >= r.a.first && bottom - 1 < r.a.end &&
        s - bottom - 1 >= r.b.first && s - lo - 1 < r.b.end &&
        (!kTraceback || (steps < r.rows_left && staged + 1 < r.lo_capacity));
    if (!steady) break;

    align::Score* const h_cur = r.h[s & 1];
    const align::Score* const h_prev = r.h[(s & 1) ^ 1];
    const std::int64_t shift1 = lo - lo1;
    const std::int64_t shift2 = lo - lo2;
    DiagSpan d = band;
    d.up_h = h_prev + shift1 - 1;
    d.up_i = r.iv + shift1 - 1;
    d.left_h = h_prev + shift1;
    d.left_d = r.dv + shift1;
    d.diag_h = h_cur + shift2 - 1;
    // Lane t pairs a[lo-1+t] with b[s-lo-1-t]; b's window is reversed.
    d.base_a = r.a.codes + (lo - 1 - r.a.first);
    d.base_b = r.b.codes + (r.b.end - s + lo);
    d.out_h = h_cur;
    d.descending = shift1 == 0;
    if constexpr (kTraceback) {
      r.lo_buf[staged++] = static_cast<std::uint32_t>(lo);
      if (steps + kPrefetchRows < r.rows_left) {
        for (std::int64_t off = 0; off < r.bt_bytes; off += 64) {
          __builtin_prefetch(row + kPrefetchRows * r.bt_bytes + off, 1);
        }
      }
      // The lanes fill bytes [0, w/2) whole; zero the rest, the pad nibble
      // of an odd w included, as diag_update does.
      if (tail_bytes > 0) __builtin_memset(row + w / 2, 0, tail_bytes);
      d.bt_row = row;
      row += r.bt_bytes;
    }
    sweep<N, kTraceback>(d, k);

    const bool down = align::adaptive_move_down(lo, s, m, n, w, h_cur[0],
                                                h_cur[w - 1]);
    lo2 = lo1;
    lo1 = lo;
    lo += down ? 1 : 0;
  }
  state.s = s;
  state.lo = lo;
  state.lo1 = lo1;
  state.lo2 = lo2;
  state.lo_staged = staged;
  return steps;
}

}  // namespace

template <int N>
void vector_sweep(const DiagSpan& d) {
  const Scores<N> k(d);
  d.bt_row != nullptr ? sweep<N, true>(d, k) : sweep<N, false>(d, k);
}
template void vector_sweep<PIMNW_SWEEP_LANES>(const DiagSpan& d);

template <int N>
std::int64_t vector_band_run(BandRun& r) {
  return r.traceback ? run<N, true>(r) : run<N, false>(r);
}
template std::int64_t vector_band_run<PIMNW_SWEEP_LANES>(BandRun& r);

}  // namespace pimnw::core::simd
