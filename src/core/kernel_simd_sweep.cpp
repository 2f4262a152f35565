// The band sweep, written once over GCC vector types and templated on its
// lane type. Like minimap2's KSW2 the build compiles this one source once
// per ISA, with the ISA's flags and PIMNW_SWEEP_LANES (N, the copy's 32-bit
// lanes per vector), and each copy exports two functions,
// vector_band_run<N, Lane>: a run of anti-diagonals over 32-bit lanes
// (Lane = std::int32_t, N per vector) or over 16-bit lanes (std::int16_t,
// 2N per vector), both instantiations of the one body `run` (N = 4: the
// portable copy, built without ISA flags over 16-byte vectors, SSE2 on any
// x86-64 and NEON on AArch64; N = 8: AVX2; N = 16: AVX-512 F/BW/VL). All else
// has internal linkage and calls no out-of-line inline function
// (align::adaptive_move_down is always inlined, and no std:: helper is
// called), so the linker cannot hand one ISA's copy of a function to another
// ISA's caller. scripts/verify.sh checks each object's symbols for that.
//
// The sweep updates the band in place; its walk direction makes that safe.
// Slot k reads H and I of the previous anti-diagonal at k + shift1 - 1, H
// and D at k + shift1, and H of the one before at k + shift2 - 1, where
// shift1 = lo - lo1 and shift2 = lo - lo2. With shift1 == 0 (so shift2 <= 1)
// every read of an array the sweep writes is at slot k or k - 1, so blocks
// go descending; with shift1 == 1 (so shift2 >= 1) at k or k + 1, so they go
// ascending. A block loads all its inputs before it stores, so every slot is
// read before the lane that owns it is written, as the scalar reference's
// carries read it. Reads one slot past a band edge land on the sentinel
// kept at each end of each array.
//
// 16-bit lanes hold each score less the band's offset (BandRun::offset);
// narrow_lanes admits them only where no value can wrap and every real one
// stays above every value derived from kNegInf16, so each compare, and with
// it each BT code and steering decision, is the 32-bit sweep's (DESIGN.md
// §7). The only score the run computes itself, a peeled boundary cell's
// gap cost, is narrowed from 64 bits after the offset is taken off.
#if PIMNW_SWEEP_LANES != 4
#include <immintrin.h>
#endif

#include "align/adaptive_steering.hpp"
#include "core/kernel_simd.hpp"

namespace pimnw::core::simd {
namespace {

using align::Score;

/// The ISA's vector of N `Lane` lanes (comparisons yield -1/0 masks of the
/// same type), its lane mask M, and the steps GCC 12 would scalarize, one
/// or a few intrinsics each in the ISA copies and lane by lane in the
/// portable one: bases(p) widens p[0, N); lanes(from, to) keeps lanes
/// [from, to) (either bound may lie outside [0, N]); load reads at least
/// the kept lanes and store writes only them; keep zeroes the other lanes;
/// pack(codes) packs each lane's code bits (code_bit) two lanes per byte,
/// slot 2j's code in byte j's low nibble, into N / 2 bytes. The 32-bit
/// loads and stores touch only the kept lanes, since the WRAM band arrays
/// carry one sentinel slot past each edge and nothing more. The 16-bit band
/// arrays carry kBandPad slots on either side, so there the AVX2 and
/// portable copies load whole vectors and blend their stores.
template <typename Lane>
struct Ops;

/// Code bit c (align::bt layout) of a lane's BT code, as a block builds it:
/// 32-bit lanes put it at bit 7 of the lane's byte c, so that gathering the
/// top bit of every byte yields the packed row; 16-bit lanes hold the code
/// itself, and a 32-bit read of lanes 2j and 2j + 1, x | x >> 12, has the
/// packed byte j in its low byte.
template <typename Lane>
constexpr Lane code_bit(int c) {
  return static_cast<Lane>(sizeof(Lane) == 4 ? 0x80u << (8 * c) : 1u << c);
}

#if PIMNW_SWEEP_LANES == 16
template <>
struct Ops<std::int32_t> {
  static constexpr int N = 16;
  typedef Score V __attribute__((vector_size(64)));
  typedef __mmask16 M;
  typedef std::uint64_t Packed;
  // The all-lanes mask form: GCC 12's unmasked _mm512_cvtepu8_epi32 trips
  // -Wuninitialized on its undefined pass-through operand.
  static V bases(const std::uint8_t* p) {
    return V(_mm512_maskz_cvtepu8_epi32(
        0xFFFF, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
  }
  static M lanes(std::int64_t from, std::int64_t to) {
    auto below = [](std::int64_t c) -> unsigned {
      return c <= 0 ? 0u : c >= 16 ? 0xFFFFu : (1u << c) - 1;
    };
    return static_cast<M>(below(to) & ~below(from));
  }
  static V load(const Score* p, M m) {
    return V(_mm512_maskz_loadu_epi32(m, p));
  }
  static void store(Score* p, M m, V v) {
    _mm512_mask_storeu_epi32(p, m, __m512i(v));
  }
  static V keep(V v, M m) { return V(_mm512_maskz_mov_epi32(m, __m512i(v))); }
  static Packed pack(V codes) { return _mm512_movepi8_mask(__m512i(codes)); }
};

template <>
struct Ops<std::int16_t> {
  static constexpr int N = 32;
  typedef std::int16_t V __attribute__((vector_size(64)));
  typedef __mmask32 M;
  typedef __m128i Packed;
  static V bases(const std::uint8_t* p) {
    return V(_mm512_maskz_cvtepu8_epi16(
        0xFFFFFFFFu, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))));
  }
  static M lanes(std::int64_t from, std::int64_t to) {
    auto below = [](std::int64_t c) -> std::uint32_t {
      return c <= 0 ? 0u : c >= 32 ? 0xFFFFFFFFu : (1u << c) - 1;
    };
    return static_cast<M>(below(to) & ~below(from));
  }
  static V load(const std::int16_t* p, M m) {
    return V(_mm512_maskz_loadu_epi16(m, p));
  }
  static void store(std::int16_t* p, M m, V v) {
    _mm512_mask_storeu_epi16(p, m, __m512i(v));
  }
  static V keep(V v, M m) { return V(_mm512_maskz_mov_epi16(m, __m512i(v))); }
  // vpmovdb in its all-lanes mask form, for the same reason as bases.
  static Packed pack(V codes) {
    typedef std::uint32_t U __attribute__((vector_size(64)));
    const U pairs = U(codes) | (U(codes) >> 12);
    return _mm512_maskz_cvtepi32_epi8(0xFFFF, __m512i(pairs));
  }
};
#elif PIMNW_SWEEP_LANES == 8
template <>
struct Ops<std::int32_t> {
  static constexpr int N = 8;
  typedef Score V __attribute__((vector_size(32)));
  typedef V M;  // -1 in the kept lanes
  typedef std::uint64_t Packed;
  static V bases(const std::uint8_t* p) {
    return V(_mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))));
  }
  static M lanes(std::int64_t from, std::int64_t to) {
    const V lane = {0, 1, 2, 3, 4, 5, 6, 7};
    auto clamp = [](std::int64_t c) -> Score {
      return static_cast<Score>(c < -1 ? -1 : c > 8 ? 8 : c);
    };
    return (lane >= clamp(from)) & (lane < clamp(to));
  }
  static V load(const Score* p, M m) {
    return V(_mm256_maskload_epi32(p, __m256i(m)));
  }
  static void store(Score* p, M m, V v) {
    _mm256_maskstore_epi32(p, __m256i(m), __m256i(v));
  }
  static V keep(V v, M m) { return v & m; }
  static Packed pack(V codes) {
    return static_cast<std::uint32_t>(_mm256_movemask_epi8(__m256i(codes)));
  }
};

template <>
struct Ops<std::int16_t> {
  static constexpr int N = 16;
  typedef std::int16_t V __attribute__((vector_size(32)));
  typedef V M;  // -1 in the kept lanes
  typedef std::uint64_t Packed;
  static V bases(const std::uint8_t* p) {
    return V(_mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))));
  }
  static M lanes(std::int64_t from, std::int64_t to) {
    const V lane = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
    auto clamp = [](std::int64_t c) -> std::int16_t {
      return static_cast<std::int16_t>(c < -1 ? -1 : c > 16 ? 16 : c);
    };
    return (lane >= clamp(from)) & (lane < clamp(to));
  }
  static V load(const std::int16_t* p, M) {
    V v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(std::int16_t* p, M m, V v) {
    V old;
    __builtin_memcpy(&old, p, sizeof old);
    old = (v & m) | (old & ~m);
    __builtin_memcpy(p, &old, sizeof old);
  }
  static V keep(V v, M m) { return v & m; }
  // Byte 0 of each 32-bit lane pair to the low 4 bytes of its 128-bit half,
  // then the two halves' low dwords side by side.
  static Packed pack(V codes) {
    const __m256i x = __m256i(codes);
    const __m256i pairs = _mm256_or_si256(x, _mm256_srli_epi32(x, 12));
    const __m256i low_bytes = _mm256_shuffle_epi8(
        pairs, _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1,
                                -1, -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1,
                                -1, -1, -1, -1, -1, -1, -1, -1));
    const __m256i joined = _mm256_permutevar8x32_epi32(
        low_bytes, _mm256_setr_epi32(0, 4, 0, 0, 0, 0, 0, 0));
    Packed packed;
    _mm_storel_epi64(reinterpret_cast<__m128i*>(&packed),
                     _mm256_castsi256_si128(joined));
    return packed;
  }
};
#else
template <>
struct Ops<std::int32_t> {
  static constexpr int N = 4;
  typedef Score V __attribute__((vector_size(16)));
  typedef V M;  // -1 in the kept lanes
  typedef std::uint64_t Packed;
  static V bases(const std::uint8_t* p) {
    typedef std::uint8_t B __attribute__((vector_size(4)));
    B b;
    __builtin_memcpy(&b, p, sizeof b);
    return __builtin_convertvector(b, V);
  }
  static M lanes(std::int64_t from, std::int64_t to) {
    const V lane = {0, 1, 2, 3};
    auto clamp = [](std::int64_t c) -> Score {
      return static_cast<Score>(c < -1 ? -1 : c > 4 ? 4 : c);
    };
    return (lane >= clamp(from)) & (lane < clamp(to));
  }
  static V load(const Score* p, M m) {
    V v = {};
    for (int u = 0; u < 4; ++u) {
      if (m[u]) v[u] = p[u];
    }
    return v;
  }
  static void store(Score* p, M m, V v) {
    for (int u = 0; u < 4; ++u) {
      if (m[u]) p[u] = v[u];
    }
  }
  static V keep(V v, M m) { return v & m; }
  // One multiply per lane: it moves bits 7, 15, 23 and 31 of the lane to
  // bits 28-31 of the product, and no two of its partial products share a
  // bit, so nothing carries into them.
  static Packed pack(V codes) {
    Packed bits = 0;
    for (int u = 0; u < 4; ++u) {
      const std::uint32_t top =
          static_cast<std::uint32_t>(codes[u]) & 0x80808080u;
      bits |= static_cast<Packed>((top * 0x00204081u) >> 28) << (4 * u);
    }
    return bits;
  }
};

template <>
struct Ops<std::int16_t> {
  static constexpr int N = 8;
  typedef std::int16_t V __attribute__((vector_size(16)));
  typedef V M;  // -1 in the kept lanes
  typedef std::uint32_t Packed;
  static V bases(const std::uint8_t* p) {
    typedef std::uint8_t B __attribute__((vector_size(8)));
    B b;
    __builtin_memcpy(&b, p, sizeof b);
    return __builtin_convertvector(b, V);
  }
  static M lanes(std::int64_t from, std::int64_t to) {
    const V lane = {0, 1, 2, 3, 4, 5, 6, 7};
    auto clamp = [](std::int64_t c) -> std::int16_t {
      return static_cast<std::int16_t>(c < -1 ? -1 : c > 8 ? 8 : c);
    };
    return (lane >= clamp(from)) & (lane < clamp(to));
  }
  static V load(const std::int16_t* p, M) {
    V v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
  }
  static void store(std::int16_t* p, M m, V v) {
    V old;
    __builtin_memcpy(&old, p, sizeof old);
    old = (v & m) | (old & ~m);
    __builtin_memcpy(p, &old, sizeof old);
  }
  static V keep(V v, M m) { return v & m; }
  static Packed pack(V codes) {
    typedef std::uint32_t U __attribute__((vector_size(16)));
    typedef std::uint8_t B __attribute__((vector_size(4)));
    const U x = U(codes);
    const B bytes = __builtin_convertvector(x | (x >> 12), B);
    Packed packed;
    __builtin_memcpy(&packed, &bytes, sizeof packed);
    return packed;
  }
};
#endif

std::int64_t min(std::int64_t a, std::int64_t b) { return a < b ? a : b; }
std::int64_t max(std::int64_t a, std::int64_t b) { return a > b ? a : b; }

/// Rows ahead of the sweep whose cache lines a band run prefetches. The
/// rows lie in a 64 KiB chunk that was zero-filled when the pair first
/// asked for it, yet the prefetch still pays: on a 4-vCPU AVX-512 Xeon VM,
/// two series of 5 alternating 30 s long_cigar pairs at seed 1 read median
/// aln/s 1406 and 1469 with it, 1312 and 1406 without (-6.7% and -4.3%);
/// it won 9 of the 10 pairs.
constexpr std::int64_t kPrefetchRows = 4;

/// BandRun's loop: per anti-diagonal, what the scalar reference's
/// per-anti-diagonal loop (core/dpu_kernel.cpp) does. The interior slots
/// [ka, kb) are swept in blocks of N lanes, in the walk order the file's
/// head sets out. Blocks start on an even slot, so each stores N/2 whole
/// BT bytes; a block that is not wholly interior (the first when ka is odd,
/// the last when kb - ka is not a multiple of N) stores and packs only its
/// interior lanes.
template <typename Lane, bool kTraceback>
std::int64_t run(BandRun<Lane>& state) {
  using O = Ops<Lane>;
  using V = typename O::V;
  using M = typename O::M;
  constexpr int N = O::N;
  // A BT byte store may alias any memory but a local whose address never
  // escapes, so the loop reads a private copy: its pointers stay in
  // registers.
  const BandRun<Lane> r = state;
  const V open_ext = V{} + static_cast<Lane>(r.open_ext);
  const V gap_extend = V{} + static_cast<Lane>(r.gap_extend);
  const V match = V{} + static_cast<Lane>(r.match);
  const V neg_mismatch = V{} - static_cast<Lane>(r.mismatch);
  const V neg_inf = V{} + kLaneNegInf<Lane>;
  const std::int64_t m = r.m;
  const std::int64_t n = r.n;
  const std::int64_t w = r.w;
  const std::int64_t step_limit =
      kTraceback ? min(r.max_steps, r.rows_left) : r.max_steps;
  Lane* const iv = r.iv;
  Lane* const dv = r.dv;
  std::int64_t s = r.s;
  std::int64_t lo = r.lo;
  std::int64_t lo1 = r.lo1;
  std::int64_t lo2 = r.lo2;
  std::uint32_t staged = r.lo_staged;
  std::uint8_t* row = r.bt_rows;
  std::int64_t steps = 0;

  // Sweep anti-diagonal s, steer from it and go on to s + 1. Returns false
  // without touching anything when s needs work between runs, and after
  // sweeping the pair's last anti-diagonal, which it does not steer from.
  // `interior` says the whole band is inside the matrix with no i = 0 or
  // j = 0 cell: lo >= 1, lo >= s - n, lo + w - 1 <= m and lo + w - 1 < s.
  // Each call site passes a constant, so the steady case compiles without
  // the edges' work.
  auto step = [&](bool interior) __attribute__((always_inline)) {
    // The band's rows inside the matrix; their bases are SeqWindow::ensure's
    // ranges, clamped to the sequences. A refill is due when one lies
    // outside its window.
    const std::int64_t i_min = interior ? lo : max(lo, max(s - n, 0));
    const std::int64_t i_max =
        interior ? lo + w - 1 : min(lo + w - 1, min(m, s));
    const std::int64_t a_first = interior ? lo - 1 : max(i_min - 1, 0);
    const std::int64_t a_last = i_max - 1;
    const std::int64_t b_first =
        interior ? s - i_max - 1 : max(s - i_max - 1, 0);
    const std::int64_t b_last = s - i_min - 1;
    const bool windows_hold =
        ((!interior && a_last < a_first) ||
         (a_first >= r.a.first && a_last < r.a.end)) &&
        ((!interior && b_last < b_first) ||
         (b_first >= r.b.first && b_last < r.b.end));
    if (!windows_hold || steps >= step_limit) return false;
    if (kTraceback && staged == r.lo_capacity) return false;

    // The interior rows [ilo, ihi]: the band's rows minus the peeled
    // boundary cells, at slots [ka, kb).
    const bool peel_i0 = !interior && i_min == 0;  // lo == 0, at slot 0
    const std::int64_t ilo = peel_i0 ? 1 : i_min;
    // s > 0 keeps the j == 0 cell (i == s) distinct from the origin cell.
    const bool peel_j0 = !interior && i_max == s && s > 0 && i_max >= ilo;
    const std::int64_t ihi = peel_j0 ? s - 1 : i_max;
    const std::int64_t ka = interior ? 0 : ilo - lo;
    const std::int64_t kb = interior ? w : ihi - lo + 1;

    Lane* const h_cur = r.h[s & 1];
    const Lane* const h_prev = r.h[(s & 1) ^ 1];
    const std::int64_t shift1 = lo - lo1;
    const std::int64_t shift2 = lo - lo2;
    // Slot k's inputs, at lane k of the whole band, and bases: slot k pairs
    // a[lo - 1 + k] with b[s - lo - 1 - k]; b's window is reversed, so both
    // walk their codes ascending.
    const Lane* const up_h = h_prev + shift1 - 1;
    const Lane* const up_i = iv + shift1 - 1;
    const Lane* const left_h = h_prev + shift1;
    const Lane* const left_d = dv + shift1;
    const Lane* const diag_h = h_cur + shift2 - 1;
    const std::uint8_t* const base_a = r.a.codes + (lo - 1 - r.a.first);
    const std::uint8_t* const base_b = r.b.codes + (r.b.end - s + lo);

    if constexpr (kTraceback) {
      r.lo_buf[staged++] = static_cast<std::uint32_t>(lo);
      if (steps + kPrefetchRows < r.rows_left) {
        for (std::int64_t off = 0; off < r.bt_bytes; off += 64) {
          __builtin_prefetch(row + kPrefetchRows * r.bt_bytes + off, 1);
        }
      }
      // The blocks fill bytes [ka / 2, (kb + 1) / 2); zero the rest, the
      // pad nibble of an odd w and the 8-byte rounding included.
      if (ka < kb) {
        if (ka > 1) __builtin_memset(row, 0, static_cast<std::size_t>(ka / 2));
        const std::int64_t filled = (kb + 1) / 2;
        if (filled < r.bt_bytes) {
          __builtin_memset(row + filled, 0,
                           static_cast<std::size_t>(r.bt_bytes - filled));
        }
      } else {
        __builtin_memset(row, 0, static_cast<std::size_t>(r.bt_bytes));
      }
    }

    // Slots [k, k + N), only the lanes in `mask` when `masked`: every input
    // is loaded before any output is stored.
    auto block = [&](std::int64_t k, bool masked, M mask)
                     __attribute__((always_inline)) {
      auto in = [&](const Lane* p) __attribute__((always_inline)) {
        if (masked) return O::load(p + k, mask);
        V v;
        __builtin_memcpy(&v, p + k, sizeof v);
        return v;
      };
      auto out = [&](Lane* p, V v) __attribute__((always_inline)) {
        if (masked) return O::store(p + k, mask, v);
        __builtin_memcpy(p + k, &v, sizeof v);
      };
      auto max_v = [](V a, V b) { return a > b ? a : b; };
      // I: vertical gap, extend vs open from the cell above; D: horizontal.
      const V i_opn = in(up_h) - open_ext;
      const V i_ext = in(up_i) - gap_extend;
      const V d_opn = in(left_h) - open_ext;
      const V d_ext = in(left_d) - gap_extend;
      const V new_i = max_v(i_opn, i_ext);
      const V new_d = max_v(d_opn, d_ext);
      const V equal = O::bases(base_a + k) == O::bases(base_b + k);
      const V h_diag = in(diag_h) + (equal ? match : neg_mismatch);
      const V gap_best = max_v(new_i, new_d);
      out(h_cur, max_v(h_diag, gap_best));
      out(iv, new_i);
      out(dv, new_d);
      if constexpr (kTraceback) {
        // The scalar reference's tie-breaks: the diagonal, then I, wins a
        // tie, and opening wins over extending. Bits 0-1 of the code are the
        // origin (a diagonal mismatch or D; a gap), 2-3 the opens, at
        // code_bit's places; packing them yields lane u's code at nibble u:
        // the packed row. A lane outside the interior packs 0.
        const V diag_best = h_diag >= gap_best;
        const V origin_lo = ~(diag_best ? equal : new_i >= new_d);
        V bits = (origin_lo & code_bit<Lane>(0)) |
                 (~diag_best & code_bit<Lane>(1)) |
                 ((i_opn >= i_ext) & code_bit<Lane>(2)) |
                 ((d_opn >= d_ext) & code_bit<Lane>(3));
        if (masked) bits = O::keep(bits, mask);
        const typename O::Packed packed = O::pack(bits);
        std::uint8_t* const dst = row + k / 2;
        // A last block may reach past the row; its bytes there pack 0.
        const std::int64_t room = r.bt_bytes - k / 2;
        if (!masked || room >= N / 2) {
          __builtin_memcpy(dst, &packed, N / 2);
        } else {
          const auto* const bytes =
              reinterpret_cast<const std::uint8_t*>(&packed);
          for (std::int64_t byte = 0; byte < room; ++byte) {
            dst[byte] = bytes[byte];
          }
        }
      }
    };
    auto full = [&](std::int64_t k) __attribute__((always_inline)) {
      block(k, false, M{});
    };
    auto masked = [&](std::int64_t k) __attribute__((always_inline)) {
      block(k, true, O::lanes(ka - k, kb - k));
    };
    if (ka < kb) {
      // Blocks from the even slot k0: a masked head at k0 when ka is odd,
      // whole blocks on [k_full, k_tail), a masked tail block at k_tail
      // when the lanes end inside it.
      const std::int64_t k0 = ka & ~std::int64_t{1};
      const std::int64_t k_full = ka == k0 ? k0 : k0 + N;
      const std::int64_t k_tail = k_full + max(kb - k_full, 0) / N * N;
      if (shift1 == 0) {
        if (k_tail < kb) masked(k_tail);
        for (std::int64_t k = k_tail - N; k >= k_full; k -= N) full(k);
        if (k0 < k_full) masked(k0);
      } else {
        if (k0 < k_full) masked(k0);
        for (std::int64_t k = k_full; k < k_tail; k += N) full(k);
        if (k_tail < kb) masked(k_tail);
      }
    }

    if (!interior) {
      // The peeled cells and the out-of-band slots overwrite slots the
      // sweep may read as neighbours, so they come after it. A peeled cell
      // ends a gap of s bases: Scoring::gap_cost(s), negated, less the
      // offset.
      auto gap = [&](std::int64_t len) {
        const std::int64_t score =
            len == 0 ? 0 : -(r.open_ext + (len - 1) * r.gap_extend);
        return static_cast<Lane>(score - r.offset);
      };
      if (peel_i0) {
        const Lane h = gap(s);
        h_cur[0] = h;
        iv[0] = kLaneNegInf<Lane>;
        dv[0] = s == 0 ? kLaneNegInf<Lane> : h;
      }
      if (peel_j0) {
        const Lane h = gap(s);
        h_cur[s - lo] = h;
        iv[s - lo] = h;
        dv[s - lo] = kLaneNegInf<Lane>;
      }
      // Out-of-band slots [0, below) and [above, w); an empty anti-diagonal
      // (i_min > i_max) makes the two cover the whole band.
      auto fill = [&](Lane* band, std::int64_t from, std::int64_t to)
                      __attribute__((always_inline)) {
        std::int64_t k = from;
        for (; k + N <= to; k += N) {
          __builtin_memcpy(band + k, &neg_inf, sizeof neg_inf);
        }
        if (k < to) O::store(band + k, O::lanes(0, to - k), neg_inf);
      };
      const std::int64_t below = min(i_min - lo, w);
      const std::int64_t above = max(i_max - lo + 1, 0);
      if (below > 0) {
        fill(h_cur, 0, below);
        fill(iv, 0, below);
        fill(dv, 0, below);
      }
      if (above < w) {
        fill(h_cur, above, w);
        fill(iv, above, w);
        fill(dv, above, w);
      }
    }
    if constexpr (kTraceback) row += r.bt_bytes;
    ++steps;
    ++s;

    if (s > m + n) return false;  // the pair's last anti-diagonal: no steering
    // Both lane types compare like the scores they hold, so steering reads
    // them as they are.
    const bool empty = i_min > i_max;
    const bool down = align::adaptive_move_down(
        lo, s - 1, m, n, w, empty ? align::kNegInf : h_cur[i_min - lo],
        empty ? align::kNegInf : h_cur[i_max - lo]);
    lo2 = lo1;
    lo1 = lo;
    lo += down ? 1 : 0;
    return true;
  };

  for (;;) {
    const std::int64_t bottom = lo + w - 1;
    const bool interior = lo >= 1 && lo >= s - n && bottom <= m && bottom < s;
    if (!(interior ? step(true) : step(false))) break;
  }
  state.s = s;
  state.lo = lo;
  state.lo1 = lo1;
  state.lo2 = lo2;
  state.lo_staged = staged;
  return steps;
}

}  // namespace

template <int N, typename Lane>
std::int64_t vector_band_run(BandRun<Lane>& r) {
  return r.traceback ? run<Lane, true>(r) : run<Lane, false>(r);
}
template std::int64_t vector_band_run<PIMNW_SWEEP_LANES>(
    BandRun<std::int32_t>& r);
template std::int64_t vector_band_run<PIMNW_SWEEP_LANES>(
    BandRun<std::int16_t>& r);

}  // namespace pimnw::core::simd
