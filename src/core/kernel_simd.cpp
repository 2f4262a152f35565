// Portable half of the fast-path kernels: runtime AVX2 detection and the
// dense branchless reference sweep. This TU is compiled with the project's
// default flags only (no -mavx2), so it is safe to execute anywhere; the
// intrinsics live in kernel_simd_avx2.cpp, added to the build only when the
// toolchain targets x86-64 (PIMNW_HAVE_AVX2).
#include "core/kernel_simd.hpp"

#include "align/bt_code.hpp"

namespace pimnw::core::simd {
namespace {

using align::Score;

template <bool kTraceback>
void dense_sweep(const DiagSpan& d) {
  // Every input of lane t is read before its outputs are stored.
  auto lane = [&](std::int64_t t) {
    const Score i_opn = d.up_h[t] - d.open_ext;
    const Score i_ext = d.up_i[t] - d.gap_extend;
    const bool i_open = i_opn >= i_ext;
    const Score new_i = i_open ? i_opn : i_ext;

    const Score d_opn = d.left_h[t] - d.open_ext;
    const Score d_ext = d.left_d[t] - d.gap_extend;
    const bool d_open = d_opn >= d_ext;
    const Score new_d = d_open ? d_opn : d_ext;

    const bool equal = d.base_a[t] == d.base_b[t];
    const Score h_diag = d.diag_h[t] + (equal ? d.match : -d.mismatch);

    const bool i_ge_d = new_i >= new_d;
    const Score gap_best = i_ge_d ? new_i : new_d;
    const bool diag_best = h_diag >= gap_best;

    d.out_h[t] = diag_best ? h_diag : gap_best;
    d.out_i[t] = new_i;
    d.out_d[t] = new_d;
    if constexpr (kTraceback) {
      const std::uint8_t origin =
          diag_best ? (equal ? align::bt::kOriginDiagMatch
                             : align::bt::kOriginDiagMismatch)
                    : (i_ge_d ? align::bt::kOriginI : align::bt::kOriginD);
      d.codes[t] = align::bt::make(origin, i_open, d_open);
    }
  };

  if (d.descending) {
    for (std::int64_t t = d.len - 1; t >= 0; --t) lane(t);
  } else {
    for (std::int64_t t = 0; t < d.len; ++t) lane(t);
  }
}

}  // namespace

bool avx2_available() {
#if defined(PIMNW_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

void diag_update_dense(const DiagSpan& d) {
  if (d.codes != nullptr) {
    dense_sweep<true>(d);
  } else {
    dense_sweep<false>(d);
  }
}

#if !defined(PIMNW_HAVE_AVX2)
// No AVX2 translation unit in this build: keep the symbol, run the dense
// sweep. avx2_available() already steers callers away from this path.
void diag_update_avx2(const DiagSpan& d) { diag_update_dense(d); }
#endif

}  // namespace pimnw::core::simd
