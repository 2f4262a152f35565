#include "common/bench_common.hpp"

#include <cstdlib>
#include <iostream>

#include "core/load_balance.hpp"
#include "core/mram_layout.hpp"
#include "dna/packed_sequence.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace pimnw::bench {

PimMeasured run_pim_measured(const PairList& pairs,
                             const core::PimAlignerConfig& config) {
  PimMeasured out;
  std::vector<core::PairInput> views;
  views.reserve(pairs.size());
  for (const auto& [a, b] : pairs) views.push_back({a, b});
  core::PimAligner aligner(config);
  out.report = aligner.align_pairs(views, &out.outputs);

  out.measured.reserve(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::uint64_t m = pairs[p].first.size();
    const std::uint64_t n = pairs[p].second.size();
    core::MeasuredPair mp;
    mp.workload = core::pair_workload(
        m, n, static_cast<std::uint64_t>(config.align.band_width));
    mp.pool_cycles = out.outputs[p].dpu_pool_cycles;
    mp.to_dpu_bytes = dna::PackedSequence::bytes_for(m) +
                      dna::PackedSequence::bytes_for(n) +
                      2 * sizeof(core::SeqEntry) + sizeof(core::PairEntry);
    mp.readback_bytes =
        sizeof(core::PairResult) +
        (config.align.traceback ? 4 * (m + n + 2) : 0);
    mp.bases = m + n;
    out.banded_cells += mp.workload;
    out.measured.push_back(mp);
  }
  return out;
}

core::BackendReport run_cpu_measured(std::span<const core::PairInput> pairs,
                                     const baseline::Ksw2Options& options) {
  // One pair per ticket: wait() makes the caller help the pool, so a ticket
  // of many pairs would align them on the worker and the caller at once.
  // With one pair in flight one thread aligns, and the report's seconds sum
  // the tickets' wall-clock, so its cells/s is a single core's.
  ThreadPool workers(1);
  core::CpuBackend cpu({.options = options}, &workers);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    (void)cpu.wait(cpu.submit(pairs.subspan(p, 1)));
  }
  return cpu.drain();
}

void print_runtime_table(const std::string& title,
                         const std::vector<TableRow>& rows) {
  PIMNW_CHECK(!rows.empty());
  TextTable table(title);
  table.header({"configuration", "time (s)", "speedup", "paper time (s)",
                "paper speedup"});
  const double base = rows.front().modeled_seconds;
  const double paper_base = rows.front().paper_seconds;
  for (const TableRow& row : rows) {
    table.row({row.label, fmt_seconds(row.modeled_seconds),
               fmt_double(base / row.modeled_seconds, 1),
               row.paper_seconds > 0 ? fmt_seconds(row.paper_seconds) : "-",
               row.paper_seconds > 0 && paper_base > 0
                   ? fmt_double(paper_base / row.paper_seconds, 1)
                   : "-"});
  }
  table.print();
}

RuntimeComparison compute_runtime_comparison(const RuntimeTableSpec& spec,
                                             const PairList& pairs) {
  PIMNW_CHECK_MSG(!pairs.empty(), "empty dataset");
  RuntimeComparison out;

  // ---- CPU baseline: measured locally, modeled for the paper's Xeons.
  std::vector<core::PairInput> cpu_pairs;
  cpu_pairs.reserve(pairs.size());
  for (const auto& [a, b] : pairs) cpu_pairs.push_back({a, b});
  baseline::Ksw2Options cpu_options;
  // minimap2 "band size" is a half-width: rows span ~2*band cells.
  cpu_options.band_width = 2 * spec.cpu_band;
  cpu_options.traceback = spec.traceback;
  const core::BackendReport cpu = run_cpu_measured(cpu_pairs, cpu_options);
  PIMNW_CHECK_MSG(cpu.cells_per_second > 0, "CPU measurement failed");

  const double replicate_f = static_cast<double>(spec.paper_pairs) /
                             static_cast<double>(pairs.size());
  const std::uint64_t replicate =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(replicate_f));
  const std::uint64_t cpu_cells_at_scale =
      static_cast<std::uint64_t>(static_cast<double>(cpu.total_cells) *
                                 replicate_f);

  // ---- PiM: measured run (1 rank), then projection per rank count.
  core::PimAlignerConfig pim_config;
  pim_config.nr_ranks = 1;
  pim_config.align.band_width = spec.dpu_band;
  pim_config.align.traceback = spec.traceback;
  pim_config.batch_pairs = pairs.size();  // single maximal batch
  out.pim = run_pim_measured(pairs, pim_config);
  out.cpu_cells_measured = cpu.total_cells;
  out.cpu_cells_per_second = cpu.cells_per_second;

  out.rows.push_back(
      {std::string(xeon_server_name(baseline::XeonServer::k4215)),
       baseline::xeon_modeled_seconds(
           cpu_cells_at_scale, baseline::kCalibratedXeonCellsPerSecond,
           baseline::XeonServer::k4215, spec.klass),
       spec.paper_4215});
  out.rows.push_back(
      {std::string(xeon_server_name(baseline::XeonServer::k4216)),
       baseline::xeon_modeled_seconds(
           cpu_cells_at_scale, baseline::kCalibratedXeonCellsPerSecond,
           baseline::XeonServer::k4216, spec.klass),
       spec.paper_4216});

  for (const auto& [ranks, paper_seconds] :
       {std::pair<int, double>{10, spec.paper_dpu10},
        {20, spec.paper_dpu20},
        {40, spec.paper_dpu40}}) {
    core::ProjectionConfig proj_config;
    proj_config.nr_ranks = ranks;
    proj_config.pool = pim_config.pool;
    proj_config.replicate = replicate;
    const core::ProjectionResult proj =
        core::project_run(out.pim.measured, proj_config);
    if (ranks == 40) out.projection40 = proj;
    out.rows.push_back({"DPU " + std::to_string(ranks) + " ranks",
                        proj.makespan_seconds *
                            (replicate_f / static_cast<double>(replicate)),
                        paper_seconds});
  }
  return out;
}

void run_runtime_table(const RuntimeTableSpec& spec, const PairList& pairs) {
  std::cout << "\n### " << spec.title << " ###\n"
            << "scaled dataset: " << pairs.size() << " pairs (paper: "
            << fmt_count(spec.paper_pairs) << ")\n";
  const RuntimeComparison cmp = compute_runtime_comparison(spec, pairs);
  print_runtime_table(spec.title, cmp.rows);

  // ---- §5 narrative stats.
  std::cout << "notes: CPU static band " << spec.cpu_band
            << " (half-width) computes "
            << fmt_double(static_cast<double>(cmp.cpu_cells_measured) /
                              static_cast<double>(cmp.pim.banded_cells),
                          2)
            << "x the DP cells of the adaptive DPU band " << spec.dpu_band
            << "\n"
            << "       Xeon rows use the calibrated "
            << fmt_count(static_cast<std::uint64_t>(
                   baseline::kCalibratedXeonCellsPerSecond))
            << " cells/s/core (this machine, scalar: "
            << fmt_count(
                   static_cast<std::uint64_t>(cmp.cpu_cells_per_second))
            << "); DPU pipeline util (scaled run) "
            << fmt_percent(cmp.pim.report.mean_pipeline_utilization)
            << ", pool occupancy at paper scale "
            << fmt_percent(cmp.projection40.mean_pool_occupancy) << "\n"
            << "       MRAM-WRAM overhead "
            << fmt_percent(cmp.pim.report.mean_mram_overhead)
            << " (paper: 1-5%), host+transfer overhead at 40 ranks "
            << fmt_percent(cmp.projection40.host_overhead_fraction)
            << ", LPT imbalance "
            << fmt_double(cmp.projection40.load_imbalance, 3) << "\n";
}

void add_common_flags(Cli& cli) {
  cli.flag("seed", std::int64_t{1}, "dataset seed");
  cli.flag("scale", 1.0,
           "multiply the scaled-down pair counts (1.0 = defaults sized for "
           "a ~1 minute run)");
  cli.flag("log-level", std::string("info"),
           "stderr log level: debug | info | warn | error");
}

void apply_common_flags(const Cli& cli) {
  const std::string level = cli.get_string("log-level");
  if (!set_log_level_by_name(level)) {
    std::cerr << "unknown --log-level " << level << "\n";
    std::exit(1);
  }
}

}  // namespace pimnw::bench
