// The band sweep's dispatch, lane choice and CPU detection, compiled without
// ISA flags so they run anywhere; the sweep itself is kernel_simd_sweep.cpp.
#include "core/kernel_simd.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace pimnw::core::simd {

// Instantiated by kernel_simd_sweep.cpp for both lane types: N = 4 in every
// build, 8 and 16 when the compiler accepts their ISA's flags (N counts a
// copy's 32-bit lanes).
template <int N, typename Lane>
std::int64_t vector_band_run(BandRun<Lane>& r);

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

// DESIGN.md §7 proves the terms. A run starts from a band whose anchor, a
// real H of its last anti-diagonal, lies within K = kRebaseSlack of 0, and
// sweeps at most R = kNarrowRunSteps anti-diagonals. Its real values then
// lie in [anchor - low, anchor + high]: `high` is the spread, one open on
// the anti-diagonal before, and R rises; `low` is the spread, the anti-
// diagonal before's fall (open_extend + match), an I or D's open, R - 1
// falls and one more step's largest subtraction. Values derived from the
// sentinel lie in [kNegInf16 - gap_extend - fall, kNegInf16 + match].
bool narrow_lanes(std::int64_t w, const align::Scoring& scoring) {
  const std::int64_t match = scoring.match;
  const std::int64_t mismatch = scoring.mismatch;
  const std::int64_t extend = scoring.gap_extend;
  const std::int64_t open_ext = scoring.open_extend();
  if (w < 1 || match < 0 || mismatch < 0 || scoring.gap_open < 0 ||
      extend < 0) {
    return false;
  }
  const std::int64_t spread = (match + 2 * extend) * (w - 1) + open_ext;
  const std::int64_t fall = std::max(open_ext, mismatch);
  const std::int64_t high = spread + open_ext + kNarrowRunSteps * match;
  const std::int64_t low = spread + 2 * open_ext + match +
                           (kNarrowRunSteps - 1) * open_ext + fall;
  constexpr std::int64_t kMax = std::numeric_limits<std::int16_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int16_t>::min();
  return kRebaseSlack + high <= kMax &&
         -kRebaseSlack - low > kNegInf16 + match &&
         kNegInf16 - extend - fall >= kMin;
}

// `isa` is unused in a build that carries only the portable copy, when
// PIMNW_DCHECK compiles out.
template <typename Lane>
std::int64_t band_run(BandRun<Lane>& r, [[maybe_unused]] Isa isa) {
  PIMNW_DCHECK(isa <= auto_isa());
#if defined(PIMNW_HAVE_AVX512)
  if (isa == Isa::kAvx512) return vector_band_run<16>(r);
#endif
#if defined(PIMNW_HAVE_AVX2)
  if (isa == Isa::kAvx2) return vector_band_run<8>(r);
#endif
  return vector_band_run<4>(r);
}
template std::int64_t band_run(BandRun<std::int16_t>& r, Isa isa);
template std::int64_t band_run(BandRun<std::int32_t>& r, Isa isa);

}  // namespace pimnw::core::simd
