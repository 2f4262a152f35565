// The band sweep's dispatch and CPU detection, compiled without ISA flags so
// they run anywhere; the sweep itself is kernel_simd_sweep.cpp.
#include "core/kernel_simd.hpp"

#include "util/check.hpp"

namespace pimnw::core::simd {

// Instantiated by kernel_simd_sweep.cpp: N = 4 in every build, 8 and 16 when
// the compiler accepts their ISA's flags.
template <int N>
std::int64_t vector_band_run(BandRun& r);

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

// `isa` is unused in a build that carries only the portable copy, when
// PIMNW_DCHECK compiles out.
std::int64_t band_run(BandRun& r, [[maybe_unused]] Isa isa) {
  PIMNW_DCHECK(isa <= auto_isa());
#if defined(PIMNW_HAVE_AVX512)
  if (isa == Isa::kAvx512) return vector_band_run<16>(r);
#endif
#if defined(PIMNW_HAVE_AVX2)
  if (isa == Isa::kAvx2) return vector_band_run<8>(r);
#endif
  return vector_band_run<4>(r);
}

}  // namespace pimnw::core::simd
