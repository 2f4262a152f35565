// The metrics registry reconciles with the run (DESIGN.md §17). The registry
// is always on and the engine is the only writer of the modeled device's
// series, so over one run the registry deltas must equal the matching sums
// over the run's StatsCollector launch records and its RunReport. A series
// written twice (say, by the collector as well as by the engine's commit
// stage) or charged from cumulative totals shows up here as a mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "data/phylo16s.hpp"
#include "data/synthetic.hpp"
#include "util/metrics.hpp"

namespace pimnw {
namespace core {
namespace {

/// The engine-written counters of the process-global registry.
struct EngineCounters {
  std::uint64_t launches = 0;
  std::uint64_t dpu_cycles = 0;
  std::uint64_t active_dpus = 0;
  std::uint64_t bytes_to_dpus = 0;
  std::uint64_t bytes_from_dpus = 0;
  std::uint64_t dpu_dma_bytes = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t broadcast_bytes = 0;
};

EngineCounters read_counters() {
  metrics::MetricsRegistry& reg = metrics::MetricsRegistry::global();
  const auto value = [&reg](const char* name) {
    return reg.counter(name, "").value();
  };
  EngineCounters c;
  c.launches = value("pimnw_engine_launches_total");
  c.dpu_cycles = value("pimnw_engine_dpu_cycles_total");
  c.active_dpus = value("pimnw_engine_active_dpus_total");
  c.bytes_to_dpus = value("pimnw_engine_bytes_to_dpus_total");
  c.bytes_from_dpus = value("pimnw_engine_bytes_from_dpus_total");
  c.dpu_dma_bytes = value("pimnw_engine_dpu_dma_bytes_total");
  c.broadcasts = value("pimnw_upmem_broadcasts_total");
  c.broadcast_bytes = value("pimnw_upmem_broadcast_bytes_total");
  return c;
}

/// Asserts that the registry moved from `before` to now by exactly what
/// `stats` recorded and `report` accumulated over one run.
void expect_reconciles(const EngineCounters& before,
                       const StatsCollector& stats, const RunReport& report) {
  const EngineCounters after = read_counters();
  std::uint64_t dpu_cycles = 0;
  std::uint64_t active_dpus = 0;
  for (const LaunchRecord& record : stats.launches()) {
    dpu_cycles += record.sum_dpu_cycles;
    active_dpus += static_cast<std::uint64_t>(record.active_dpus);
  }
  ASSERT_GT(stats.launches().size(), 0u);
  EXPECT_EQ(after.launches - before.launches, stats.launches().size());
  EXPECT_EQ(after.dpu_cycles - before.dpu_cycles, dpu_cycles);
  EXPECT_EQ(after.active_dpus - before.active_dpus, active_dpus);
  EXPECT_EQ(after.bytes_to_dpus - before.bytes_to_dpus, report.bytes_to_dpus);
  EXPECT_EQ(after.bytes_from_dpus - before.bytes_from_dpus,
            report.bytes_from_dpus);
  EXPECT_EQ(after.dpu_dma_bytes - before.dpu_dma_bytes,
            report.total_dma_bytes);
  EXPECT_EQ(after.broadcasts - before.broadcasts, stats.broadcasts());
  EXPECT_EQ(after.broadcast_bytes - before.broadcast_bytes,
            stats.broadcast_bytes());
}

TEST(TelemetryIdentity, RegistryReconcilesWithRun) {
  // align_pairs with traceback: batch images in, CIGARs back, no broadcast.
  {
    data::SyntheticConfig data_config;
    data_config.pair_count = 48;
    data_config.read_length = 220;
    data_config.errors.error_rate = 0.08;
    data_config.seed = 77;
    const data::PairDataset dataset = data::generate_synthetic(data_config);
    std::vector<PairInput> pairs;
    for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

    StatsCollector stats;
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.align.traceback = true;
    config.stats = &stats;
    const EngineCounters before = read_counters();
    std::vector<PairOutput> outputs;
    const RunReport report = PimAligner(config).align_pairs(pairs, &outputs);
    expect_reconciles(before, stats, report);
  }
  // A DbSession call: the database broadcast plus one score-only round set.
  {
    data::Phylo16sConfig db_config;
    db_config.species = 8;
    db_config.root_length = 48;
    db_config.seed = 29;
    const std::vector<std::string> db = data::generate_16s(db_config);
    std::vector<IndexPair> pairs;
    for (std::uint32_t i = 0; i < db.size(); ++i) {
      for (std::uint32_t j = i + 1; j < db.size(); ++j) pairs.push_back({i, j});
    }

    StatsCollector stats;
    PimAlignerConfig config;
    config.nr_ranks = 1;
    config.stats = &stats;
    const EngineCounters before = read_counters();
    DbSession session(db, config);
    const RunReport report = session.align_pairs(pairs, nullptr);
    ASSERT_EQ(stats.broadcasts(), 1u);
    expect_reconciles(before, stats, report);
  }
}

}  // namespace
}  // namespace core
}  // namespace pimnw
