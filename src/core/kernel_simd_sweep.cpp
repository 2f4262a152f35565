// The vector band sweep, written once over GCC vector types and templated on
// its lane count N. Like minimap2's KSW2 the build compiles this one source
// once per ISA, with the ISA's flags and PIMNW_SWEEP_LANES, and each copy
// exports one function: vector_sweep<8> (AVX2) or vector_sweep<16> (AVX-512
// F/BW/VL). All else has internal linkage and calls no out-of-line inline
// function, so the linker cannot hand one ISA's copy of a function to
// another ISA's caller.
#include <immintrin.h>

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

/// Whole blocks of N lanes in the walk order (DiagSpan). A block stores N/2
/// BT bytes, so it starts on an even nibble; the lanes outside the blocks
/// (lane 0 on an odd nibble, the remainder) run the dense loop in walk order.
template <int N, bool kTraceback>
void sweep(const DiagSpan& span) {
  // A BT byte store may alias any memory but a local whose address never
  // escapes, so the blocks read a private copy: its pointers and scores
  // stay in registers, broadcast once.
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
    const V i_opn = load(d.up_h + t) - d.open_ext;
    const V i_ext = load(d.up_i + t) - d.gap_extend;
    const V d_opn = load(d.left_h + t) - d.open_ext;
    const V d_ext = load(d.left_d + t) - d.gap_extend;
    const V new_i = max(i_opn, i_ext);
    const V new_d = max(d_opn, d_ext);
    const V equal = Ops<N>::bases(d.base_a + t) == Ops<N>::bases(d.base_b + t);
    const V h_diag = load(d.diag_h + t) + (equal ? d.match : -d.mismatch);
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

}  // namespace

template <int N>
void vector_sweep(const DiagSpan& d) {
  d.bt_row != nullptr ? sweep<N, true>(d) : sweep<N, false>(d);
}
template void vector_sweep<PIMNW_SWEEP_LANES>(const DiagSpan& d);

}  // namespace pimnw::core::simd
