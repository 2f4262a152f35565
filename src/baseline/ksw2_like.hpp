// KSW2-style CPU implementation of the static banded affine-gap global
// aligner — the role minimap2's N&W step plays in the paper's comparisons.
//
// Like KSW2 it is row-major, uses a query profile (per target-base score
// rows, so the inner loop is a table lookup instead of a compare) and
// branch-light max selection; unlike KSW2 it is scalar rather than SSE
// (portability), which only shifts the calibrated cells/second constant —
// the cell *counts* that drive every comparison are exact.
//
// Scores/CIGARs are identical to align::banded_static (tested); only the
// implementation style and speed differ.
#pragma once

#include <cstdint>
#include <string_view>

#include "align/result.hpp"

namespace pimnw::baseline {

struct Ksw2Options {
  std::int64_t band_width = 128;  // total width, centred on the diagonal
  bool traceback = true;
};

align::AlignResult ksw2_align(std::string_view a, std::string_view b,
                              const align::Scoring& scoring,
                              const Ksw2Options& options = {});

/// Measure this machine's single-thread ksw2_align throughput in
/// cells/second on a synthetic workload — the per-core rate the Xeon timing
/// model (baseline/xeon_model.hpp) builds on.
double measure_local_cells_per_second(std::uint64_t target_cells = 50'000'000);

}  // namespace pimnw::baseline
