// Table 5 reproduction: 16S rRNA all-against-all comparison for phylogeny
// (score-only, dataset resident in MRAM via a DbSession, launch rounds that
// move only index pairs and scores — §5.3, DESIGN.md §13).
#include <iostream>

#include "common/bench_common.hpp"
#include "core/load_balance.hpp"
#include "core/mram_layout.hpp"
#include "core/session.hpp"
#include "data/phylo16s.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pimnw;
  Cli cli("table5_16s", "Table 5: 16S all-vs-all, CPU vs DPU ranks");
  bench::add_common_flags(cli);
  cli.flag("species", std::int64_t{48},
           "scaled sequence count (paper: 9557)");
  cli.parse(argc, argv);
  bench::apply_common_flags(cli);

  data::Phylo16sConfig data_config;
  data_config.species = static_cast<std::size_t>(
      static_cast<double>(cli.get_int("species")) * cli.get_double("scale"));
  data_config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::vector<std::string> seqs = data::generate_16s(data_config);
  const std::size_t pair_count = seqs.size() * (seqs.size() - 1) / 2;

  constexpr std::uint64_t kPaperSeqs = 9557;
  const std::uint64_t paper_pairs = kPaperSeqs * (kPaperSeqs - 1) / 2;
  const double replicate_f = static_cast<double>(paper_pairs) /
                             static_cast<double>(pair_count);

  std::cout << "\n### Table 5 — 16S all-vs-all (score-only) ###\n"
            << "scaled dataset: " << seqs.size() << " sequences, "
            << pair_count << " pairs (paper: " << kPaperSeqs
            << " sequences, " << fmt_count(paper_pairs) << " pairs)\n";

  // ---- CPU baseline: static band 512 for >=85% accuracy (Table 1).
  std::vector<core::PairInput> cpu_pairs;
  cpu_pairs.reserve(pair_count);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    for (std::size_t j = i + 1; j < seqs.size(); ++j) {
      cpu_pairs.push_back({seqs[i], seqs[j]});
    }
  }
  // minimap2 band 512 in the paper's half-width convention: ~1024 cells/row.
  const core::BackendReport cpu = bench::run_cpu_measured(
      cpu_pairs, {.band_width = 1024, .traceback = false});
  const std::uint64_t cpu_cells_at_scale = static_cast<std::uint64_t>(
      static_cast<double>(cpu.total_cells) * replicate_f);

  // ---- PiM: resident database session — the packed pool lives in MRAM for
  // the whole sweep; each round sends 8-byte index pairs, reads 16-byte
  // score records (score-only, adaptive band 128).
  core::PimAlignerConfig pim_config;
  pim_config.nr_ranks = 1;
  pim_config.align.band_width = 128;
  pim_config.align.traceback = false;
  core::DbSession session(seqs, pim_config);
  std::vector<core::IndexPair> index_pairs;
  index_pairs.reserve(pair_count);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    for (std::size_t j = i + 1; j < seqs.size(); ++j) {
      index_pairs.push_back({static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(j)});
    }
  }
  std::vector<core::PairOutput> outputs;
  const core::RunReport report = session.align_pairs(index_pairs, &outputs);

  std::vector<core::MeasuredPair> measured;
  measured.reserve(outputs.size());
  std::size_t linear = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    for (std::size_t j = i + 1; j < seqs.size(); ++j, ++linear) {
      core::MeasuredPair mp;
      mp.workload = core::pair_workload(seqs[i].size(), seqs[j].size(), 128);
      mp.pool_cycles = outputs[linear].dpu_pool_cycles;
      mp.to_dpu_bytes = sizeof(core::SessionPairEntry);
      mp.readback_bytes = sizeof(core::SessionResult);
      mp.bases = seqs[i].size() + seqs[j].size();
      measured.push_back(mp);
    }
  }

  // Broadcast bytes at paper scale: the resident database image (SeqEntry
  // table + packed pool), linearly extrapolated to 9557 sequences.
  const std::uint64_t paper_broadcast_bytes = static_cast<std::uint64_t>(
      static_cast<double>(session.db_bytes()) *
      (static_cast<double>(kPaperSeqs) / static_cast<double>(seqs.size())));

  std::vector<bench::TableRow> rows;
  rows.push_back(
      {std::string(xeon_server_name(baseline::XeonServer::k4215)),
       baseline::xeon_modeled_seconds(
           cpu_cells_at_scale, baseline::kCalibratedXeonCellsPerSecond,
           baseline::XeonServer::k4215, baseline::DatasetClass::k16S),
       5882});
  rows.push_back(
      {std::string(xeon_server_name(baseline::XeonServer::k4216)),
       baseline::xeon_modeled_seconds(
           cpu_cells_at_scale, baseline::kCalibratedXeonCellsPerSecond,
           baseline::XeonServer::k4216, baseline::DatasetClass::k16S),
       3538});

  core::ProjectionResult proj40{};
  for (const auto& [ranks, paper_seconds] :
       {std::pair<int, double>{10, 2544}, {20, 1257}, {40, 632}}) {
    core::ProjectionConfig proj_config;
    proj_config.nr_ranks = ranks;
    proj_config.pool = pim_config.pool;
    proj_config.replicate = static_cast<std::uint64_t>(replicate_f);
    const core::ProjectionResult proj = core::project_all_vs_all(
        measured, proj_config, paper_broadcast_bytes);
    if (ranks == 40) proj40 = proj;
    rows.push_back({"DPU " + std::to_string(ranks) + " ranks",
                    proj.makespan_seconds *
                        (replicate_f /
                         static_cast<double>(proj_config.replicate)),
                    paper_seconds});
  }
  bench::print_runtime_table("Table 5 — 16S all-vs-all (accuracy > 85%)",
                             rows);
  std::cout << "notes: CPU static band 512 vs DPU adaptive band 128 (4x the "
               "cells)\n"
            << "       resident database broadcast once ("
            << fmt_count(paper_broadcast_bytes)
            << " B per DPU at paper scale); per-round traffic "
            << fmt_count(report.bytes_to_dpus - report.bytes_broadcast)
            << " B out / " << fmt_count(report.bytes_from_dpus)
            << " B back (scaled run); pipeline util "
            << fmt_percent(report.mean_pipeline_utilization)
            << ", pool occupancy at paper scale "
            << fmt_percent(proj40.mean_pool_occupancy) << "\n"
            << "       LPT round imbalance "
            << fmt_double(report.load_imbalance, 3)
            << " (paper: ~5% spread across a rank)\n";
  return 0;
}
