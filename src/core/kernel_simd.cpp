// The portable half of the fast-path kernels: the dense reference sweep,
// CPU detection and the band runs' dispatch, compiled without ISA flags so
// it runs anywhere.
#include "core/kernel_simd.hpp"

#include <cstring>

#include "align/bt_code.hpp"
#include "util/check.hpp"

namespace pimnw::core::simd {

// Instantiated by kernel_simd_sweep.cpp, for each ISA the compiler accepts.
template <int N>
std::int64_t vector_band_run(BandRun& r);

namespace {

using align::Score;

template <bool kTraceback>
void dense_sweep(const DiagSpan& span) {
  // A BT byte store may alias any memory but a local whose address never
  // escapes, so the lanes read a private copy: its pointers stay in
  // registers.
  const DiagSpan d = span;
  // Every input of lane t is read before its outputs are stored.
  auto lane = [&](std::int64_t t) __attribute__((always_inline)) {
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
      // align::bt's origin from its bits, branch-free as in the vector
      // blocks: bit 1 says a gap won, bit 0 a diagonal mismatch or D.
      const auto origin = static_cast<std::uint8_t>(
          (!diag_best << 1) | (!diag_best & !i_ge_d) | (diag_best & !equal));
      align::bt_store(d.bt_row, static_cast<std::uint64_t>(d.bt_first + t),
                      align::bt::make(origin, i_open, d_open));
    }
  };

  if (d.descending) {
    for (std::int64_t t = d.len - 1; t >= 0; --t) lane(t);
  } else {
    for (std::int64_t t = 0; t < d.len; ++t) lane(t);
  }
}

}  // namespace

const char* isa_name(Isa isa) {
  static constexpr const char* kNames[] = {"portable", "avx2", "avx512"};
  return kNames[static_cast<int>(isa)];
}

Isa auto_isa() {
  static const Isa isa = [] {
#if defined(PIMNW_HAVE_AVX512)
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl")) {
      return Isa::kAvx512;
    }
#endif
#if defined(PIMNW_HAVE_AVX2)
    if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
    return Isa::kPortable;
  }();
  return isa;
}

void diag_update(const DiagSpan& d) {
  if (d.bt_row == nullptr) return dense_sweep<false>(d);
  // Zero the bytes the lanes do not fill whole; a full band zeroes none.
  auto zero = [&](std::size_t from, std::size_t to) {
    if (from < to) std::memset(d.bt_row + from, 0, to - from);
  };
  zero(0, d.len > 0 ? (d.bt_first + 1) / 2 : d.bt_bytes);
  zero(d.len > 0 ? (d.bt_first + d.len) / 2 : d.bt_bytes, d.bt_bytes);
  dense_sweep<true>(d);
}

std::int64_t band_run(BandRun& r, Isa isa) {
  PIMNW_DCHECK(isa != Isa::kPortable && isa <= auto_isa());
#if defined(PIMNW_HAVE_AVX512)
  if (isa == Isa::kAvx512) return vector_band_run<16>(r);
#endif
#if defined(PIMNW_HAVE_AVX2)
  if (isa == Isa::kAvx2) return vector_band_run<8>(r);
#endif
  return 0;
}

}  // namespace pimnw::core::simd
