// Anti-diagonal update kernels — the host analog of the paper's hand-written
// DPU inner loop (§5.5: cmpb4 4-byte SIMD compare + fused shift/jump). Under
// SimPath::kAuto every anti-diagonal of a pair runs inside the band sweep TU
// (kernel_simd_sweep.cpp), a run of them per call (band_run), in one of its
// three copies: portable, AVX2 or AVX-512. Each copy sweeps 32-bit lanes or,
// where the score-spread bound makes them exact (narrow_lanes), 16-bit lanes,
// twice as many cells per vector. All are pure arithmetic: the caller charges
// modeled cycles/DMA per unit of modeled work, so the execution path cannot
// perturb any Table 2–8 number (DESIGN.md §7).
#pragma once

#include <cstdint>

#include "align/scoring.hpp"

namespace pimnw::core::simd {

/// The band sweep's copies, narrowest first, and their names: 16-byte
/// vectors without ISA flags ("portable", every build), 32-byte ones
/// ("avx2") and 64-byte ones ("avx512", AVX-512 F/BW/VL). A copy's vector
/// holds 4, 8 or 16 32-bit lanes, twice as many 16-bit ones.
enum class Isa { kPortable, kAvx2, kAvx512 };
const char* isa_name(Isa isa);

/// SimPath::kAuto's sweep: the widest this build carries and the CPU runs
/// (so every narrower one runs too), chosen once per process.
Isa auto_isa();

/// Readable bytes a band run needs on either side of a window's codes: the
/// lanes a masked block turns off still load their bases, up to one code
/// before the window and, for a 32-lane block, 31 past it.
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

/// The 16-bit lanes' unreachable sentinel, far enough from INT16_MIN that
/// subtracting a few penalties from it cannot wrap, as align::kNegInf is for
/// 32-bit scores. A 16-bit band value is real iff it is above kNegInf16.
inline constexpr std::int16_t kNegInf16 = -(1 << 14);

/// A lane type's sentinel: align::kNegInf or kNegInf16.
template <typename Lane>
inline constexpr Lane kLaneNegInf = align::kNegInf;
template <>
inline constexpr std::int16_t kLaneNegInf<std::int16_t> = kNegInf16;

/// Slots of kNegInf16 padding a 16-bit band array carries on either side of
/// its w slots (the first and last of them are its sentinels): one vector of
/// the widest copy. The AVX2 and portable copies load a masked block's whole
/// vectors and blend its stores, reaching up to one vector past a band edge.
inline constexpr std::int64_t kBandPad = 32;

/// The most anti-diagonals a 16-bit band run sweeps (R), and how far from 0
/// a band's anchor may lie at a run's start before sweep_runs rebases it
/// (K): the two terms of narrow_lanes' bound (DESIGN.md §7).
inline constexpr std::int64_t kNarrowRunSteps = 512;
inline constexpr std::int64_t kRebaseSlack = 1024;

/// Whether band runs at band width w under `scoring` sweep 16-bit lanes.
/// Two real in-band cells of one anti-diagonal differ by at most
/// S = (match + 2·gap_extend)·(w − 1) + open_extend, and real values move by
/// at most `match` up and max(open_extend, mismatch) down per anti-diagonal.
/// 16-bit lanes are chosen when, from an anchor within kRebaseSlack of 0,
/// every value a run of kNarrowRunSteps anti-diagonals computes stays in
/// range without wrapping and every real one above every value derived from
/// kNegInf16: then every compare, BT code, steering decision and score
/// equals the 32-bit sweep's. Otherwise runs sweep 32-bit lanes.
bool narrow_lanes(std::int64_t w, const align::Scoring& scoring);

/// A pair's band between two anti-diagonals, as the fast path keeps it
/// (core/dpu_kernel.cpp), for band_run: the four band arrays of w slots of
/// `Lane` (each with a sentinel slot at both ends), the two windows, the
/// bank rows left in the row's chunk and the lo staging buffer (both with
/// traceback only), and the steering state. Each band value is a real score
/// less `offset`, or derived from the lane type's sentinel; 32-bit runs keep
/// offset 0, their arrays are the simulated WRAM's.
///
/// The run updates the band arrays in place, in whichever walk direction
/// reads every slot before it is overwritten (kernel_simd_sweep.cpp). It
/// writes every byte of each BT row it sweeps (align::bt_store layout,
/// bt_bytes bytes), so stale bytes in a reused bank never show: slot k's
/// code sits at nibble k for the band's interior cells, and every other
/// nibble, peeled and out-of-band cells, an odd w's pad nibble and the
/// 8-byte rounding included, is 0.
template <typename Lane>
struct BandRun {
  std::int64_t m, n, w;
  Lane* h[2];  // H of the even and the odd anti-diagonals
  Lane* iv;    // I and D, in place
  Lane* dv;
  Window a;  // ascending
  Window b;  // reversed
  bool traceback;
  std::uint8_t* bt_rows;   // row s, then row s + 1, ...
  std::int64_t bt_bytes;   // bytes per row
  std::int64_t rows_left;  // whole rows at bt_rows
  std::uint32_t* lo_buf;   // staged window origins
  std::uint32_t lo_capacity;
  std::int64_t max_steps;  // anti-diagonals the run may sweep at most
  align::Score match, mismatch, gap_extend, open_ext;
  std::int64_t offset;  // real score = band value + offset
  // Advanced by the run.
  std::uint32_t lo_staged;
  std::int64_t s, lo;  // the next anti-diagonal and its window origin
  std::int64_t lo1, lo2;  // the origins of s - 1 and s - 2
};

/// Sweep anti-diagonals from r.s on with `isa`'s copy of the band sweep,
/// doing for each what the scalar reference's per-anti-diagonal loop does:
/// stage lo; sweep the interior cells (the band's rows inside the matrix
/// but its i = 0 and j = 0 cells) into the row, every other nibble 0; peel
/// the i = 0 and j = 0 cells; set the out-of-band slots to the sentinel;
/// steer the window with align::adaptive_move_down. A run stops before an
/// anti-diagonal that needs work between runs:
///  * a window refill: a base that SeqWindow::ensure would load for the
///    anti-diagonal's cells lies outside a or b;
///  * after max_steps anti-diagonals (the 16-bit runs' R-stop, so that
///    sweep_runs can rebase the band);
///  * with traceback, a lo flush (lo_staged == lo_capacity) or a row past
///    the rows_left rows at bt_rows;
/// or after the pair's last anti-diagonal m + n, which it does not steer
/// from (s becomes m + n + 1). Returns the number of anti-diagonals swept;
/// r's state then describes the next one. `isa` must be no wider than
/// auto_isa(). Instantiated for std::int32_t (align::Score) and
/// std::int16_t lanes.
template <typename Lane>
std::int64_t band_run(BandRun<Lane>& r, Isa isa);

}  // namespace pimnw::core::simd
