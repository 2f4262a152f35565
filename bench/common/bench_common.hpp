// Shared machinery of the table/figure reproduction harness.
//
// Every runtime table follows the same methodology (DESIGN.md §6):
//  1. generate a scaled-down dataset;
//  2. CPU side: run the KSW2-like baseline on it (measuring this machine's
//     per-core cells/s and the exact cell count), then model the paper's
//     two Xeon servers at paper scale;
//  3. PiM side: run the real simulator (1 rank) to validate results and
//     collect per-pair cycle costs, then project the orchestration to
//     10/20/40 ranks at paper scale;
//  4. print modeled-vs-paper rows plus the §5 narrative stats.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "baseline/xeon_model.hpp"
#include "core/backend.hpp"
#include "core/host.hpp"
#include "core/projection.hpp"
#include "util/cli.hpp"

namespace pimnw::bench {

using PairList = std::vector<std::pair<std::string, std::string>>;

/// Outcome of the measured (scaled) PiM run, ready for projection.
struct PimMeasured {
  core::RunReport report;
  std::vector<core::MeasuredPair> measured;
  std::vector<core::PairOutput> outputs;
  std::uint64_t banded_cells = 0;  // Σ (m+n)·w over pairs
};

/// Run the PiM aligner on `pairs` and build projection inputs.
PimMeasured run_pim_measured(const PairList& pairs,
                             const core::PimAlignerConfig& config);

/// Run the KSW2-like CPU baseline on `pairs` through core::CpuBackend, one
/// pair at a time, and return its report: the exact cell count and the
/// cells/s one core of this machine aligns.
core::BackendReport run_cpu_measured(std::span<const core::PairInput> pairs,
                                     const baseline::Ksw2Options& options);

/// One row of a runtime table.
struct TableRow {
  std::string label;
  double modeled_seconds = 0.0;
  double paper_seconds = 0.0;
};

/// Render a Tables 2–6 style block: per row the modeled time, the modeled
/// speedup vs the first row, and the paper's numbers next to them.
void print_runtime_table(const std::string& title,
                         const std::vector<TableRow>& rows);

/// Everything dataset-specific a synthetic runtime table needs.
struct RuntimeTableSpec {
  std::string title;
  baseline::DatasetClass klass;
  std::uint64_t paper_pairs;     // full-scale pair count
  /// minimap2 band size in the paper's (half-width) convention; the actual
  /// static band evaluated spans ~2x this many cells per row.
  std::int64_t cpu_band;
  std::int64_t dpu_band;         // adaptive window width (128 in the paper)
  bool traceback = true;
  double paper_4215 = 0.0;       // paper's reported seconds per row
  double paper_4216 = 0.0;
  double paper_dpu10 = 0.0;
  double paper_dpu20 = 0.0;
  double paper_dpu40 = 0.0;
};

/// Computed rows plus the narrative stats of one runtime comparison.
struct RuntimeComparison {
  std::vector<TableRow> rows;  // 4215, 4216, DPU 10/20/40
  PimMeasured pim;
  std::uint64_t cpu_cells_measured = 0;
  double cpu_cells_per_second = 0.0;
  core::ProjectionResult projection40;
};

/// Compute the comparison without printing (reused by the energy table).
RuntimeComparison compute_runtime_comparison(const RuntimeTableSpec& spec,
                                             const PairList& pairs);

/// Full driver for Tables 2, 3, 4 and 6 (pairwise datasets): compute and
/// print, including the §5 narrative stats.
void run_runtime_table(const RuntimeTableSpec& spec, const PairList& pairs);

/// Register the flags shared by the runtime-table benches.
void add_common_flags(Cli& cli);

/// Apply the parsed common flags' side effects (currently the stderr
/// --log-level). Call right after cli.parse(); exits with an error on an
/// unknown level name.
void apply_common_flags(const Cli& cli);

}  // namespace pimnw::bench
