#include "core/stats.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>

#include "core/host.hpp"
#include "util/logging.hpp"
#include "util/provenance.hpp"
#include "util/trace.hpp"

namespace pimnw::core {
namespace {

constexpr double kSecondsToUs = 1e6;

}  // namespace

std::uint32_t StatsCollector::lane_base(int rank) {
  return 1 + static_cast<std::uint32_t>(rank) *
                 static_cast<std::uint32_t>(upmem::kDpusPerRank + 1);
}

void StatsCollector::name_rank_lanes(int rank) {
  if (static_cast<std::size_t>(rank) >= rank_lanes_named_.size()) {
    rank_lanes_named_.resize(static_cast<std::size_t>(rank) + 1, false);
  }
  if (rank_lanes_named_[static_cast<std::size_t>(rank)]) return;
  rank_lanes_named_[static_cast<std::size_t>(rank)] = true;
  const std::uint32_t base = lane_base(rank);
  trace::set_modeled_lane_name(base, "rank " + std::to_string(rank));
  for (int d = 0; d < upmem::kDpusPerRank; ++d) {
    trace::set_modeled_lane_name(
        base + 1 + static_cast<std::uint32_t>(d),
        "rank " + std::to_string(rank) + " dpu " + std::to_string(d));
  }
}

void StatsCollector::on_launch(
    std::uint64_t batch, int rank, double start, double in_seconds,
    double overhead_seconds, double out_seconds,
    const std::array<upmem::DpuCostModel::Summary, upmem::kDpusPerRank>&
        summaries,
    const std::array<bool, upmem::kDpusPerRank>& ran,
    const upmem::LaunchStats& agg,
    const std::array<upmem::DpuPhaseProfile, upmem::kDpusPerRank>* profiles) {
  LaunchRecord record;
  record.batch = batch;
  record.rank = rank;
  record.start_seconds = start;
  record.exec_start_seconds = start + in_seconds + overhead_seconds;
  record.exec_end_seconds = record.exec_start_seconds + agg.seconds;
  record.end_seconds = record.exec_end_seconds + out_seconds;
  record.max_cycles = agg.max_cycles;
  record.min_cycles = agg.max_cycles;  // lowered below; 0 if no DPU ran
  record.active_dpus = agg.active_dpus;
  for (int d = 0; d < upmem::kDpusPerRank; ++d) {
    if (!ran[static_cast<std::size_t>(d)]) continue;
    const auto& summary = summaries[static_cast<std::size_t>(d)];
    record.sum_dpu_cycles += summary.cycles;
    record.min_cycles = std::min(record.min_cycles, summary.cycles);
  }

  upmem::DpuPhaseProfile launch_prof;
  if (profiles != nullptr) {
    for (int d = 0; d < upmem::kDpusPerRank; ++d) {
      if (!ran[static_cast<std::size_t>(d)]) continue;
      const auto& prof = (*profiles)[static_cast<std::size_t>(d)];
      record.attributed_cycles += prof.attributed_cycles();
      ++record.verdict_dpus[static_cast<std::size_t>(prof.bottleneck)];
      ++verdict_dpus_[static_cast<std::size_t>(prof.bottleneck)];
      launch_prof.merge(prof);
    }
    record.bottleneck = launch_prof.bottleneck;
    profile_.merge(launch_prof);
    has_profile_ = true;
  }
  launches_.push_back(record);

  if (trace::enabled()) {
    name_rank_lanes(rank);
    const std::uint32_t base = lane_base(rank);
    const std::string b = "b" + std::to_string(batch);
    if (in_seconds > 0) {
      trace::modeled_span("xfer in " + b, base, start * kSecondsToUs,
                          in_seconds * kSecondsToUs);
    }
    trace::modeled_span(
        "launch " + b, base, (start + in_seconds) * kSecondsToUs,
        (overhead_seconds + agg.seconds) * kSecondsToUs, agg.max_cycles);
    if (out_seconds > 0) {
      trace::modeled_span("xfer out " + b, base,
                          record.exec_end_seconds * kSecondsToUs,
                          out_seconds * kSecondsToUs);
    }
    for (int d = 0; d < upmem::kDpusPerRank; ++d) {
      if (!ran[static_cast<std::size_t>(d)]) continue;
      const auto& summary = summaries[static_cast<std::size_t>(d)];
      const std::uint32_t lane = base + 1 + static_cast<std::uint32_t>(d);
      trace::modeled_span(b + " d" + std::to_string(d), lane,
                          record.exec_start_seconds * kSecondsToUs,
                          summary.seconds * kSecondsToUs, summary.cycles);
      if (profiles == nullptr) continue;
      // Tile the DPU span with its phase attribution: back-to-back sub-spans
      // whose cycles sum exactly to the parent's (the invariant again, now
      // visible in Perfetto).
      const auto& prof = (*profiles)[static_cast<std::size_t>(d)];
      double cursor = record.exec_start_seconds * kSecondsToUs;
      const double us_per_cycle = kSecondsToUs / upmem::kDpuFrequencyHz;
      for (int ph = 0; ph < upmem::kPhaseCount; ++ph) {
        const std::uint64_t cyc =
            prof.phase_cycles(static_cast<upmem::Phase>(ph));
        if (cyc == 0) continue;
        const double dur = static_cast<double>(cyc) * us_per_cycle;
        trace::modeled_span(phase_name(static_cast<upmem::Phase>(ph)), lane,
                            cursor, dur, cyc);
        cursor += dur;
      }
      if (prof.reentry_stall_cycles > 0) {
        trace::modeled_span(
            "reentry stall", lane, cursor,
            static_cast<double>(prof.reentry_stall_cycles) * us_per_cycle,
            prof.reentry_stall_cycles);
      }
    }
    if (profiles != nullptr && launch_prof.cycles > 0) {
      // Launch-level counter tracks (tid 0 of the modeled process).
      const double total = static_cast<double>(launch_prof.cycles);
      trace::modeled_counter(
          "modeled pipeline util %", record.exec_start_seconds * kSecondsToUs,
          100.0 * static_cast<double>(launch_prof.total_issue_cycles()) /
              total);
      trace::modeled_counter(
          "modeled MRAM stall %", record.exec_start_seconds * kSecondsToUs,
          100.0 * static_cast<double>(launch_prof.total_dma_stall_cycles()) /
              total);
    }
  }
}

void StatsCollector::on_broadcast(double seconds, std::uint64_t bytes,
                                  int nr_ranks) {
  // The counters are recorded whether or not tracing is on — the JSON
  // report's broadcast attribution must not depend on a trace sink.
  ++broadcasts_;
  broadcast_bytes_ += bytes;
  broadcast_seconds_ += seconds;
  if (!trace::enabled()) return;
  for (int r = 0; r < nr_ranks; ++r) {
    name_rank_lanes(r);
    trace::modeled_span(
        "broadcast " + std::to_string(bytes) + " B", lane_base(r), 0.0,
        seconds * kSecondsToUs);
  }
}

void StatsCollector::add_cells(std::uint64_t cells) { cells_ += cells; }

std::uint64_t StatsCollector::dpu_count() const {
  std::uint64_t count = 0;
  for (const LaunchRecord& record : launches_) {
    count += static_cast<std::uint64_t>(record.active_dpus);
  }
  return count;
}

std::uint64_t StatsCollector::dpu_cycles_min() const {
  std::uint64_t lowest = dpu_cycles_max();
  for (const LaunchRecord& record : launches_) {
    if (record.active_dpus > 0) lowest = std::min(lowest, record.min_cycles);
  }
  return lowest;
}

std::uint64_t StatsCollector::dpu_cycles_max() const {
  std::uint64_t highest = 0;
  for (const LaunchRecord& record : launches_) {
    highest = std::max(highest, record.max_cycles);
  }
  return highest;
}

double StatsCollector::dpu_cycles_mean() const {
  const std::uint64_t count = dpu_count();
  if (count == 0) return 0.0;
  std::uint64_t sum = 0;
  for (const LaunchRecord& record : launches_) sum += record.sum_dpu_cycles;
  return static_cast<double>(sum) / static_cast<double>(count);
}

void StatsCollector::note_pool(std::uint64_t executed, std::uint64_t stolen,
                               std::uint64_t injected) {
  pool_executed_ += executed;
  pool_stolen_ += stolen;
  pool_injected_ += injected;
}

void StatsCollector::write_json(std::ostream& out,
                                const RunReport& report) const {
  out.precision(std::numeric_limits<double>::max_digits10);
  const double makespan = report.makespan_seconds;
  const double pairs_per_second =
      makespan > 0 ? static_cast<double>(report.total_pairs) / makespan : 0.0;
  const double gcups =
      makespan > 0 ? static_cast<double>(cells_) / makespan / 1e9 : 0.0;
  out << "{\n";
  out << "  \"total_pairs\": " << report.total_pairs << ",\n";
  out << "  \"batches\": " << report.batches << ",\n";
  out << "  \"launches\": " << launches_.size() << ",\n";
  out << "  \"makespan_seconds\": " << makespan << ",\n";
  out << "  \"pairs_per_second\": " << pairs_per_second << ",\n";
  out << "  \"banded_cells\": " << cells_ << ",\n";
  out << "  \"gcups\": " << gcups << ",\n";
  out << "  \"host_prep_seconds\": " << report.host_prep_seconds << ",\n";
  out << "  \"transfer_seconds\": " << report.transfer_seconds << ",\n";
  out << "  \"host_overhead_fraction\": " << report.host_overhead_fraction
      << ",\n";
  out << "  \"load_imbalance\": " << report.load_imbalance << ",\n";
  out << "  \"mean_pipeline_utilization\": "
      << report.mean_pipeline_utilization << ",\n";
  out << "  \"mean_mram_overhead\": " << report.mean_mram_overhead << ",\n";
  out << "  \"dpu_launches\": " << dpu_count() << ",\n";
  out << "  \"dpu_cycles\": { \"min\": " << dpu_cycles_min()
      << ", \"mean\": " << dpu_cycles_mean()
      << ", \"max\": " << dpu_cycles_max() << " },\n";
  out << "  \"pool\": { \"tasks_executed\": " << pool_executed_
      << ", \"tasks_stolen\": " << pool_stolen_
      << ", \"tasks_injected\": " << pool_injected_ << " },\n";
  out << "  \"bytes_to_dpus\": " << report.bytes_to_dpus << ",\n";
  out << "  \"broadcast\": { \"count\": " << broadcasts_
      << ", \"bytes\": " << broadcast_bytes_
      << ", \"seconds\": " << broadcast_seconds_ << " },\n";
  out << "  \"bytes_to_dpus_marginal\": "
      << report.bytes_to_dpus - report.bytes_broadcast << ",\n";
  out << "  \"bytes_from_dpus\": " << report.bytes_from_dpus << ",\n";
  out << "  \"total_instructions\": " << report.total_instructions << ",\n";
  out << "  \"total_dma_bytes\": " << report.total_dma_bytes << ",\n";
  if (has_profile_) {
    out << "  \"profile\": {\n";
    out << "    \"cycles\": " << profile_.cycles << ",\n";
    out << "    \"attributed_cycles\": " << profile_.attributed_cycles()
        << ",\n";
    out << "    \"phases\": {\n";
    for (int ph = 0; ph < upmem::kPhaseCount; ++ph) {
      const auto i = static_cast<std::size_t>(ph);
      out << "      \"" << upmem::phase_name(static_cast<upmem::Phase>(ph))
          << "\": { \"issue_cycles\": " << profile_.issue_cycles[i]
          << ", \"dma_stall_cycles\": " << profile_.dma_stall_cycles[i]
          << ", \"dma_bytes\": " << profile_.dma_bytes[i] << " }"
          << (ph + 1 < upmem::kPhaseCount ? "," : "") << "\n";
    }
    out << "    },\n";
    out << "    \"reentry_stall_cycles\": " << profile_.reentry_stall_cycles
        << ",\n";
    out << "    \"mram_contention_cycles\": "
        << profile_.mram_contention_cycles << ",\n";
    out << "    \"stall_fraction\": " << profile_.stall_fraction() << ",\n";
    out << "    \"bottleneck\": \""
        << upmem::bottleneck_name(profile_.bottleneck) << "\",\n";
    out << "    \"verdict_dpus\": { \"pipeline\": " << verdict_dpus_[0]
        << ", \"mram\": " << verdict_dpus_[1]
        << ", \"reentry\": " << verdict_dpus_[2] << " },\n";
    out << "    \"dma_hist\": [";
    for (int b = 0; b < upmem::kDmaHistBuckets; ++b) {
      out << (b > 0 ? ", " : "")
          << profile_.dma_hist[static_cast<std::size_t>(b)];
    }
    out << "],\n";
    out << "    \"tasklet_instr\": [";
    const int slots = std::min(profile_.active_tasklets, upmem::kMaxTasklets);
    for (int t = 0; t < slots; ++t) {
      out << (t > 0 ? ", " : "")
          << profile_.tasklet_instr[static_cast<std::size_t>(t)];
    }
    out << "]\n";
    out << "  },\n";
  }
  out << "  \"provenance\": " << provenance_json(params_) << "\n";
  out << "}\n";
}

bool StatsCollector::write_json_file(const std::string& path,
                                     const RunReport& report) const {
  std::ofstream out(path);
  if (!out) {
    PIMNW_WARN("stats: cannot open " << path << " for writing");
    return false;
  }
  write_json(out, report);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace pimnw::core
