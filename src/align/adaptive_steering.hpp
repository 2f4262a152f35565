// Window steering of the adaptive band — shared, verbatim, by the CPU
// reference (banded_adaptive.cpp) and the DPU kernel (core/dpu_kernel.cpp
// and its band runs in core/kernel_simd_sweep.cpp) so that all produce
// bit-identical alignments. Always inlined: the per-ISA sweep TU may call no
// out-of-line inline function, whose one linked copy could carry another
// ISA's instructions.
#pragma once

#include <cstdint>

#include "align/scoring.hpp"

namespace pimnw::align {

/// Decide the window move after anti-diagonal `s` has been computed.
/// Returns true to move down (origin row +1), false to move right.
///
/// Forced geometry first: the final window (on anti-diagonal m+n) must
/// contain row m, and the origin can only grow by one per step, so when the
/// remaining steps are exactly what is needed to lift the origin to m-w+1
/// the move is forced down; symmetrically the origin must never pass row m,
/// and at least one window row must keep j <= n. Otherwise the
/// Suzuki–Kasahara heuristic applies: shift toward the window extremity
/// carrying the higher score (ties move right).
__attribute__((always_inline)) inline bool adaptive_move_down(
    std::int64_t lo, std::int64_t s, std::int64_t m, std::int64_t n,
    std::int64_t w, Score top_score, Score bottom_score) {
  const std::int64_t remaining = (m + n) - s;
  if (lo >= m) return false;                       // cannot sink below row m
  if (m - (w - 1) - lo >= remaining) return true;  // must sink to reach row m
  if (lo + (w - 1) < (s + 1) - n) return true;     // keep a row with j <= n
  return bottom_score > top_score;
}

}  // namespace pimnw::align
