// AVX2 fast-path kernel: 8 band cells per step. Only this TU is compiled
// with -mavx2 (see src/core/CMakeLists.txt); callers reach it through the
// avx2_available() runtime dispatch, so binaries stay runnable on CPUs
// without AVX2.
//
// The H/I/D recurrence maps directly onto epi32 lanes because cells on one
// anti-diagonal have no mutual dependencies — the same property the paper's
// tasklets exploit (§4.2.3), and its cmpb4 instruction is the byte-compare
// analog of the _mm256_cmpeq_epi32 below.
#include "core/kernel_simd.hpp"

#if defined(PIMNW_HAVE_AVX2)

#include <immintrin.h>

namespace pimnw::core::simd {
namespace {

inline __m256i load(const align::Score* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store(align::Score* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

/// Widen 8 base codes (bytes) to epi32 lanes.
inline __m256i load_bases(const std::uint8_t* p) {
  return _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

/// Lanes [first, first + len) of `d`, as a span of their own.
DiagSpan lanes(const DiagSpan& d, std::int64_t first, std::int64_t len) {
  DiagSpan part = d;
  part.up_h += first;
  part.up_i += first;
  part.left_h += first;
  part.left_d += first;
  part.diag_h += first;
  part.base_a += first;
  part.base_b += first;
  part.out_h += first;
  part.out_i += first;
  part.out_d += first;
  if (part.codes != nullptr) part.codes += first;
  part.len = len;
  return part;
}

template <bool kTraceback>
void avx2_sweep(const DiagSpan& d) {
  const __m256i v_gext = _mm256_set1_epi32(d.gap_extend);
  const __m256i v_open = _mm256_set1_epi32(d.open_ext);
  const __m256i v_match = _mm256_set1_epi32(d.match);
  const __m256i v_mismatch = _mm256_set1_epi32(-d.mismatch);

  // Lanes [t, t+8): every input is loaded before any output is stored.
  auto block = [&](std::int64_t t) {
    // I: vertical gap, extend vs open from the cell above.
    const __m256i i_opn = _mm256_sub_epi32(load(d.up_h + t), v_open);
    const __m256i i_ext = _mm256_sub_epi32(load(d.up_i + t), v_gext);
    const __m256i new_i = _mm256_max_epi32(i_opn, i_ext);

    // D: horizontal gap, extend vs open from the cell to the left.
    const __m256i d_opn = _mm256_sub_epi32(load(d.left_h + t), v_open);
    const __m256i d_ext = _mm256_sub_epi32(load(d.left_d + t), v_gext);
    const __m256i new_d = _mm256_max_epi32(d_opn, d_ext);

    // H: diagonal step with the dense base compare (cmpb4 analog).
    const __m256i eq =
        _mm256_cmpeq_epi32(load_bases(d.base_a + t), load_bases(d.base_b + t));
    const __m256i sub = _mm256_blendv_epi8(v_mismatch, v_match, eq);
    const __m256i h_diag = _mm256_add_epi32(load(d.diag_h + t), sub);

    const __m256i gap_best = _mm256_max_epi32(new_i, new_d);
    const __m256i h = _mm256_max_epi32(h_diag, gap_best);

    store(d.out_h + t, h);
    store(d.out_i + t, new_i);
    store(d.out_d + t, new_d);

    if constexpr (kTraceback) {
      // Origin, matching the scalar tie-breaks exactly:
      //   diag wins on >=; between gaps, I wins on >=.
      const __m256i gap_wins = _mm256_cmpgt_epi32(gap_best, h_diag);
      const __m256i d_wins = _mm256_cmpgt_epi32(new_d, new_i);
      // Gap origin: kOriginI (2) or kOriginD (3); d_wins lanes are -1.
      const __m256i gap_origin =
          _mm256_sub_epi32(_mm256_set1_epi32(2), d_wins);
      // Diagonal origin: kOriginDiagMatch (0) or kOriginDiagMismatch (1).
      const __m256i diag_origin =
          _mm256_andnot_si256(eq, _mm256_set1_epi32(1));
      const __m256i origin =
          _mm256_blendv_epi8(diag_origin, gap_origin, gap_wins);
      // Open bits: open on >= (i.e. unless extension is strictly better).
      const __m256i i_open_bit = _mm256_andnot_si256(
          _mm256_cmpgt_epi32(i_ext, i_opn), _mm256_set1_epi32(4));
      const __m256i d_open_bit = _mm256_andnot_si256(
          _mm256_cmpgt_epi32(d_ext, d_opn), _mm256_set1_epi32(8));
      const __m256i code =
          _mm256_or_si256(origin, _mm256_or_si256(i_open_bit, d_open_bit));
      // Narrow the 8 epi32 codes to 8 bytes (low byte of each lane).
      const __m256i shuffled = _mm256_shuffle_epi8(
          code, _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1,
                                 -1, -1, -1, -1, 0, 4, 8, 12, -1, -1, -1, -1,
                                 -1, -1, -1, -1, -1, -1, -1, -1));
      const std::uint32_t lo = static_cast<std::uint32_t>(
          _mm256_extract_epi32(shuffled, 0));
      const std::uint32_t hi = static_cast<std::uint32_t>(
          _mm256_extract_epi32(shuffled, 4));
      std::uint8_t* out = d.codes + t;
      __builtin_memcpy(out, &lo, 4);
      __builtin_memcpy(out + 4, &hi, 4);
    }
  };

  // Whole blocks in the walk order (DiagSpan); the dense reference runs the
  // remainder lanes, at the end the walk reaches last, in the same
  // direction.
  if (d.descending) {
    std::int64_t t = d.len;
    for (; t >= 8; t -= 8) block(t - 8);
    if (t > 0) diag_update_dense(lanes(d, 0, t));
  } else {
    std::int64_t t = 0;
    for (; t + 8 <= d.len; t += 8) block(t);
    if (t < d.len) diag_update_dense(lanes(d, t, d.len - t));
  }
}

}  // namespace

void diag_update_avx2(const DiagSpan& d) {
  if (d.codes != nullptr) {
    avx2_sweep<true>(d);
  } else {
    avx2_sweep<false>(d);
  }
}

}  // namespace pimnw::core::simd

#endif  // PIMNW_HAVE_AVX2
