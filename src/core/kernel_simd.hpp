// Anti-diagonal update kernels — the host analog of the paper's hand-written
// DPU inner loop (§5.5: cmpb4 4-byte SIMD compare + fused shift/jump). Under
// a vector ISA every anti-diagonal of a pair runs inside the vector TU
// (kernel_simd_sweep.cpp), a run of them per call (band_run); the portable
// loop (diag_update) takes one anti-diagonal's interior cells per call. All
// are pure arithmetic: the caller charges modeled cycles/DMA per unit of
// modeled work, so the execution path cannot perturb any Table 2–8 number
// (DESIGN.md §7).
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
  const std::uint8_t* base_b;  // b[j-1] codes, reversed: lane t pairs base_a[t]
  align::Score* out_h;
  align::Score* out_i;
  align::Score* out_d;
  /// Packed BT row of bt_bytes bytes (align::bt_store layout; nullptr:
  /// score-only). diag_update writes all of it, so stale bytes never show:
  /// lane t's code at nibble bt_first + t, 0 in every other nibble.
  std::uint8_t* bt_row;
  std::int64_t bt_bytes;
  std::int64_t bt_first;
  std::int64_t len;  // 0 on an empty anti-diagonal: only zero the row
  bool descending;          // walk direction (see above)
  align::Score match;       // added on equal bases
  align::Score mismatch;    // subtracted on unequal bases (magnitude)
  align::Score gap_extend;  // per-base gap charge (magnitude)
  align::Score open_ext;    // Scoring::open_extend()
};

/// The sweeps, narrowest first, and their names: the portable loop
/// ("portable"), the vector sweep at 8 epi32 lanes ("avx2") and at 16
/// ("avx512", AVX-512 F/BW/VL).
enum class Isa { kPortable, kAvx2, kAvx512 };
const char* isa_name(Isa isa);

/// SimPath::kAuto's sweep: the widest this build carries and the CPU runs
/// (so every narrower one runs too), chosen once per process.
Isa auto_isa();

/// Update `d` with the portable loop (no ISA flags), in its walk direction.
void diag_update(const DiagSpan& d);

/// Readable bytes a band run needs on either side of a window's codes: the
/// lanes a masked block turns off still load their bases, up to one code
/// before the window and 15 past it.
inline constexpr std::int64_t kWindowPad = 64;

/// Bases [first, end) of a sequence, decoded one code byte per base: a
/// sequence window's cache. An ascending window holds base first at
/// codes[0]; a reversed one holds base end - 1 there. kWindowPad bytes on
/// either side of the codes must be readable; what they hold is never used.
struct Window {
  const std::uint8_t* codes;
  std::int64_t first;
  std::int64_t end;
};

/// A pair's band between two anti-diagonals, as the fast path keeps it
/// (core/dpu_kernel.cpp), for band_run: the four band arrays of w slots
/// (each with a kNegInf sentinel slot at both ends), the two windows, the
/// bank rows left in the row's chunk and the lo staging buffer (both with
/// traceback only), and the steering state.
struct BandRun {
  std::int64_t m, n, w;
  align::Score* h[2];  // H of the even and the odd anti-diagonals
  align::Score* iv;    // I and D, in place
  align::Score* dv;
  Window a;  // ascending
  Window b;  // reversed
  bool traceback;
  std::uint8_t* bt_rows;   // row s, then row s + 1, ...
  std::int64_t bt_bytes;   // bytes per row
  std::int64_t rows_left;  // whole rows at bt_rows
  std::uint32_t* lo_buf;   // staged window origins
  std::uint32_t lo_capacity;
  align::Score match, mismatch, gap_extend, open_ext;
  // Advanced by the run.
  std::uint32_t lo_staged;
  std::int64_t s, lo;  // the next anti-diagonal and its window origin
  std::int64_t lo1, lo2;  // the origins of s - 1 and s - 2
};

/// Sweep anti-diagonals from r.s on with `isa`'s vector sweep, doing for
/// each what compute_band's per-anti-diagonal loop does with the portable
/// sweep: stage lo; sweep the interior cells (the band's rows inside the
/// matrix but its i = 0 and j = 0 cells) into the row, every other nibble
/// 0; peel the i = 0 and j = 0 cells; set the out-of-band slots to kNegInf;
/// steer the window with align::adaptive_move_down. A run stops before an
/// anti-diagonal that needs work between runs:
///  * a window refill: a base that SeqWindow::ensure would load for the
///    anti-diagonal's cells lies outside a or b;
///  * with traceback, a lo flush (lo_staged == lo_capacity) or a row past
///    the rows_left rows at bt_rows;
/// or after the pair's last anti-diagonal m + n, which it does not steer
/// from (s becomes m + n + 1). Returns the number of anti-diagonals swept;
/// r's state then describes the next one. `isa` must be a vector sweep no
/// wider than auto_isa().
std::int64_t band_run(BandRun& r, Isa isa);

}  // namespace pimnw::core::simd
