// Dense anti-diagonal update kernels — the host analog of the paper's
// hand-written DPU inner loop (§5.5: cmpb4 4-byte SIMD compare + fused
// shift/jump). The simulator's fast path batches one anti-diagonal's
// interior cells into parallel arrays (cells on an anti-diagonal are
// independent by construction) and updates them with one branchless sweep,
// either auto-vectorized (diag_update_dense) or with AVX2 intrinsics
// (diag_update_avx2, runtime-dispatched).
//
// These kernels are pure arithmetic: no cost-model charging happens here.
// Modeled cycles/DMA are charged per unit of modeled work by the caller, so
// the execution path cannot perturb any Table 2–8 number (DESIGN.md
// "Simulator fast path").
#pragma once

#include <cstdint>

#include "align/scoring.hpp"

namespace pimnw::core::simd {

/// One anti-diagonal's interior cells (i >= 1, j >= 1, inside the band) as
/// dense parallel arrays. Every score pointer is pre-shifted by the caller
/// so lane t of all inputs describes the same DP cell; lanes whose
/// neighbour falls outside the band read align::kNegInf, from an
/// out-of-band slot or from the sentinel slot the caller keeps at each end
/// of its arrays.
///
/// The sweep updates the band in place, so an input may point into the
/// array an output writes. The walk direction makes that safe: every slot
/// is read before the lane that owns it is written.
///  * descending (lanes len-1 down to 0): an input aliasing an output must
///    sit at or below it (in <= out), i.e. read its own slot or one behind;
///  * ascending (lanes 0 up to len-1): at or above it (in >= out).
/// A kernel may handle a block of lanes at once provided it loads the
/// block's inputs before storing its outputs and takes blocks in the walk
/// order.
struct DiagSpan {
  const align::Score* up_h;    // H_prev[k + shift1 - 1]  (vertical)
  const align::Score* up_i;    // I_prev[k + shift1 - 1]
  const align::Score* left_h;  // H_prev[k + shift1]      (horizontal)
  const align::Score* left_d;  // D_prev[k + shift1]
  const align::Score* diag_h;  // H_prev2[k + shift2 - 1] (diagonal)
  const std::uint8_t* base_a;  // a[i-1] codes, ascending i
  const std::uint8_t* base_b;  // b[j-1] codes, reversed so lane t pairs with base_a[t]
  align::Score* out_h;
  align::Score* out_i;
  align::Score* out_d;
  /// 4-bit BT codes, one byte per lane (caller nibble-packs); nullptr in
  /// score-only mode.
  std::uint8_t* codes;
  std::int64_t len;
  bool descending;          // walk direction (see above)
  align::Score match;       // added on equal bases
  align::Score mismatch;    // subtracted on unequal bases (magnitude)
  align::Score gap_extend;  // per-base gap charge (magnitude)
  align::Score open_ext;    // Scoring::open_extend()
};

/// True when this build carries the AVX2 kernel and the CPU supports it.
bool avx2_available();

/// Portable branchless update (compiled without ISA-specific flags; the
/// autovectorizer does what it can). Reference for the AVX2 kernel.
void diag_update_dense(const DiagSpan& d);

/// AVX2 update (8 cells per step). Falls back to diag_update_dense when the
/// build has no AVX2 translation unit; must only be called after
/// avx2_available() returned true or on the fallback path knowingly.
void diag_update_avx2(const DiagSpan& d);

}  // namespace pimnw::core::simd
