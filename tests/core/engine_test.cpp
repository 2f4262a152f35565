// Determinism of the execution engine: the work-stealing engine must
// produce bit-identical outputs AND bit-identical modeled statistics for any
// worker count, any batch window, any steal order, and across repeated runs
// — all compared against the serial reference schedule (one worker, one
// batch in flight), which is itself pinned to constants.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/host.hpp"
#include "core/pim_kernel.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "data/pacbio.hpp"
#include "data/phylo16s.hpp"
#include "data/synthetic.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pimnw::core {
namespace {

struct RunResult {
  RunReport report;
  std::vector<PairOutput> out;
};

void expect_same_outputs(const std::vector<PairOutput>& a,
                         const std::vector<PairOutput>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].ok, b[p].ok) << "pair " << p;
    EXPECT_EQ(a[p].score, b[p].score) << "pair " << p;
    EXPECT_EQ(a[p].cigar, b[p].cigar) << "pair " << p;
    EXPECT_EQ(a[p].dpu_pool_cycles, b[p].dpu_pool_cycles) << "pair " << p;
    EXPECT_EQ(a[p].dpu_dma_bytes, b[p].dpu_dma_bytes) << "pair " << p;
  }
}

/// Every RunReport field, doubles compared exactly: the commit stage must
/// reproduce the serial accumulation order, not merely approximate it.
void expect_same_report(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.transfer_seconds, b.transfer_seconds);
  EXPECT_EQ(a.host_prep_seconds, b.host_prep_seconds);
  EXPECT_EQ(a.host_overhead_fraction, b.host_overhead_fraction);
  EXPECT_EQ(a.mean_pipeline_utilization, b.mean_pipeline_utilization);
  EXPECT_EQ(a.mean_mram_overhead, b.mean_mram_overhead);
  EXPECT_EQ(a.load_imbalance, b.load_imbalance);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.total_pairs, b.total_pairs);
  EXPECT_EQ(a.bytes_to_dpus, b.bytes_to_dpus);
  EXPECT_EQ(a.bytes_from_dpus, b.bytes_from_dpus);
  EXPECT_EQ(a.total_instructions, b.total_instructions);
  EXPECT_EQ(a.total_dma_bytes, b.total_dma_bytes);
}

void expect_identical(const RunResult& a, const RunResult& b) {
  expect_same_outputs(a.out, b.out);
  expect_same_report(a.report, b.report);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of every pair's score, CIGAR, pool cycles and DMA bytes.
std::uint64_t output_digest(const std::vector<PairOutput>& out) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const PairOutput& o : out) {
    h = fnv1a(h, &o.score, sizeof(o.score));
    const std::string cigar = o.cigar.to_string();
    h = fnv1a(h, cigar.data(), cigar.size() + 1);
    h = fnv1a(h, &o.dpu_pool_cycles, sizeof(o.dpu_pool_cycles));
    h = fnv1a(h, &o.dpu_dma_bytes, sizeof(o.dpu_dma_bytes));
  }
  return h;
}

/// The serial schedule's modeled results, recorded from the barrier engine
/// that rank-batches ran on before the pipelined engine replaced it. They
/// pin the commit stage's timeline arithmetic, which no second
/// implementation checks any more.
struct ReferencePin {
  std::uint64_t batches;
  std::uint64_t total_pairs;
  std::uint64_t rejected_pairs;
  std::uint64_t bytes_to_dpus;
  std::uint64_t bytes_broadcast;
  std::uint64_t bytes_from_dpus;
  std::uint64_t total_instructions;
  std::uint64_t total_dma_bytes;
  double makespan_seconds;
  std::uint64_t output_digest;
};

/// output_digest plus every pair's status, for the pins whose workloads mix
/// aligned, unreachable and oversized pairs.
std::uint64_t status_digest(const std::vector<PairOutput>& out) {
  std::uint64_t h = output_digest(out);
  for (const PairOutput& o : out) h = fnv1a(h, &o.status, sizeof(o.status));
  return h;
}

using Digest = std::uint64_t (*)(const std::vector<PairOutput>&);

void expect_matches_pin(const RunResult& r, const ReferencePin& pin,
                        Digest digest = output_digest) {
  EXPECT_EQ(r.report.batches, pin.batches);
  EXPECT_EQ(r.report.total_pairs, pin.total_pairs);
  EXPECT_EQ(r.report.rejected_pairs, pin.rejected_pairs);
  EXPECT_EQ(r.report.bytes_to_dpus, pin.bytes_to_dpus);
  EXPECT_EQ(r.report.bytes_broadcast, pin.bytes_broadcast);
  EXPECT_EQ(r.report.bytes_from_dpus, pin.bytes_from_dpus);
  EXPECT_EQ(r.report.total_instructions, pin.total_instructions);
  EXPECT_EQ(r.report.total_dma_bytes, pin.total_dma_bytes);
  EXPECT_EQ(r.report.makespan_seconds, pin.makespan_seconds);
  EXPECT_EQ(digest(r.out), pin.output_digest);
}

struct EngineVariant {
  std::size_t window;
  /// Worker threads; 0 = the process-global pool (hardware concurrency).
  std::size_t pool_threads;
};

/// The serial reference schedule: one worker, one batch in flight.
constexpr EngineVariant kSerial{1, 1};

PimAlignerConfig variant_config(PimAlignerConfig base, const EngineVariant& v,
                                std::optional<ThreadPool>& pool) {
  base.batch_window = v.window;
  if (v.pool_threads > 0) {
    pool.emplace(v.pool_threads);
    base.workers = &*pool;
  }
  return base;
}

/// The pool-size/window sweep: pool sizes 1, 2 and N(hardware), windows 1
/// and 4, and a repeated run to pin run-to-run determinism.
const EngineVariant kVariants[] = {
    {4, 1},  // windowed, single worker
    {4, 2},  // windowed, two workers
    {1, 0},  // window 1, N workers
    {4, 0},  // full engine, N workers
    {4, 0},  // ... and again (repeatability)
};

TEST(EngineDeterminismTest, PairsBitIdenticalAcrossPoolsWindowsAndModes) {
  // Table-3-style workload: long reads, enough pairs for several batches.
  data::SyntheticConfig data_config = data::s10000_config(36);
  data_config.read_length = 3000;  // keep the test fast; shape unchanged
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  PimAlignerConfig base;
  base.nr_ranks = 2;
  base.batch_pairs = 10;  // 36 pairs -> 4 batches over 2 ranks

  auto run_variant = [&](const EngineVariant& v) -> RunResult {
    std::optional<ThreadPool> pool;
    PimAligner aligner(variant_config(base, v, pool));
    RunResult r;
    r.report = aligner.align_pairs(pairs, &r.out);
    return r;
  };

  const RunResult reference = run_variant(kSerial);
  expect_matches_pin(reference, {4, 36, 0, 59896, 0, 867944, 1285615932,
                                 29525464, 0x1.446bf2eba50fep+0,
                                 0x9fd7e3f25c756ac2ULL});

  for (const EngineVariant& v : kVariants) {
    SCOPED_TRACE("window " + std::to_string(v.window) + " threads " +
                 std::to_string(v.pool_threads));
    expect_identical(run_variant(v), reference);
  }
}

TEST(EngineDeterminismTest, SetsBitIdenticalAcrossEngines) {
  data::PacbioConfig data_config;
  data_config.set_count = 6;
  data_config.region_min = 1200;
  data_config.region_max = 1800;
  data_config.reads_min = 4;
  data_config.reads_max = 6;
  const data::SetDataset dataset = data::generate_pacbio(data_config);

  PimAlignerConfig base;
  base.nr_ranks = 2;
  base.batch_pairs = 2;  // 2 sets per batch -> 3 batches

  auto run_variant = [&](const EngineVariant& v) {
    std::optional<ThreadPool> pool;
    PimAligner aligner(variant_config(base, v, pool));
    std::vector<std::vector<PairOutput>> out;
    RunReport report = aligner.align_sets(dataset.sets, &out);
    RunResult flat;
    flat.report = report;
    for (auto& set : out) {
      for (auto& o : set) flat.out.push_back(std::move(o));
    }
    return flat;
  };

  const RunResult reference = run_variant(kSerial);
  expect_matches_pin(reference, {1, 67, 0, 14408, 0, 807088, 1193900948,
                                 27254480, 0x1.f53abc476003ap-1,
                                 0xfe661b63b1828728ULL});
  for (const EngineVariant& v : kVariants) {
    SCOPED_TRACE("window " + std::to_string(v.window) + " threads " +
                 std::to_string(v.pool_threads));
    expect_identical(run_variant(v), reference);
  }
}

/// 2 kb pairs at 1.5% divergence for the WFA pins: under the default
/// wfa_max_cost some of them finish inside the cost cap and some do not.
std::vector<PairInput> wfa_pairs() {
  static const data::PairDataset dataset = [] {
    data::SyntheticConfig data_config = data::s1000_config(24, 5);
    data_config.read_length = 2000;
    data_config.errors.error_rate = 0.015;
    return data::generate_synthetic(data_config);
  }();
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});
  return pairs;
}

PimAlignerConfig wfa_base_config() {
  PimAlignerConfig base;
  base.nr_ranks = 2;
  base.batch_pairs = 6;  // 24 pairs -> 4 batches over 2 ranks
  base.kernel = &wfa_kernel();
  return base;
}

RunResult run_serial_pairs(const PimAlignerConfig& base,
                           const std::vector<PairInput>& pairs) {
  std::optional<ThreadPool> pool;
  PimAligner aligner(variant_config(base, kSerial, pool));
  RunResult r;
  r.report = aligner.align_pairs(pairs, &r.out);
  return r;
}

std::size_t count_status(const RunResult& r, PairStatus status) {
  return static_cast<std::size_t>(std::count_if(
      r.out.begin(), r.out.end(),
      [status](const PairOutput& o) { return o.status == status; }));
}

// The WFA kernel and session rounds share the DPU batch protocol (header
// boot, pair pull, CIGAR streaming, result write-back) with banded NW; these
// pins hold that shared half to the numbers the two kernels produced while
// each carried its own copy.
TEST(EngineDeterminismTest, WfaPairsWithTracebackPinned) {
  const RunResult r = run_serial_pairs(wfa_base_config(), wfa_pairs());
  expect_matches_pin(r,
                     {4, 24, 0, 27760, 0, 383704, 8974566, 12013352,
                      0x1.72c5f7dfe6e6ep-6, 0xfeab06bf1d9757e7ULL},
                     status_digest);
  EXPECT_GT(count_status(r, PairStatus::kOk), 0u);
  EXPECT_GT(count_status(r, PairStatus::kUnreachable), 0u);
}

TEST(EngineDeterminismTest, WfaScoreOnlyUncappedPairsPinned) {
  PimAlignerConfig base = wfa_base_config();
  base.align.traceback = false;
  base.align.wfa_max_cost = 0;
  const RunResult r = run_serial_pairs(base, wfa_pairs());
  expect_matches_pin(r,
                     {4, 24, 0, 27760, 0, 576, 9296620, 13243472,
                      0x1.a0aa4102d8203p-6, 0xb4a0db356c33f2f8ULL},
                     status_digest);
  EXPECT_EQ(count_status(r, PairStatus::kOk), r.out.size());
}

TEST(EngineDeterminismTest, SessionRoundsPinnedForBothKernels) {
  data::Phylo16sConfig data_config;
  data_config.species = 16;
  data_config.root_length = 600;
  const std::vector<std::string> seqs = data::generate_16s(data_config);
  std::vector<IndexPair> pairs;
  for (std::uint32_t i = 0; i < seqs.size(); ++i) {
    for (std::uint32_t j = i; j < seqs.size(); j += 3) pairs.push_back({i, j});
  }

  const struct {
    const PimKernel* kernel;
    ReferencePin pin;
  } cases[] = {
      {&nw_kernel(),
       {2, 102, 0, 356720, 346112, 1632, 491150576, 53568,
        0x1.82ab6dd30902ap-4, 0x051451b8d9679823ULL}},
      {&wfa_kernel(),
       {2, 102, 0, 356720, 346112, 1632, 28650228, 41277760,
        0x1.3e4fae9b98567p-7, 0x7e32a51bd503a3c5ULL}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.kernel->name());
    PimAlignerConfig base;
    base.nr_ranks = 2;
    base.kernel = c.kernel;
    std::optional<ThreadPool> pool;
    DbSession session(seqs, variant_config(base, kSerial, pool));
    // Two calls on one resident database; the report is cumulative.
    RunResult r;
    std::vector<PairOutput> second;
    session.align_pairs(pairs, &r.out);
    r.report = session.align_pairs(pairs, &second);
    expect_same_outputs(second, r.out);
    r.out.insert(r.out.end(), second.begin(), second.end());
    expect_matches_pin(r, c.pin, status_digest);
  }
}

TEST(EngineDeterminismTest, AllVsAllBitIdenticalAcrossEngines) {
  // The session all-vs-all sweep: broadcast database, tiled rounds, hits
  // streamed into the reducer from whichever worker decoded them.
  data::Phylo16sConfig data_config;
  data_config.species = 20;
  data_config.root_length = 500;
  const std::vector<std::string> seqs = data::generate_16s(data_config);

  PimAlignerConfig base;
  base.nr_ranks = 3;  // 3 rounds (one per rank) after the broadcast

  auto run_variant = [&](const EngineVariant& v) {
    std::optional<ThreadPool> pool;
    DbSession session(seqs, variant_config(base, v, pool));
    return session.align_all_vs_all(ScoreFilter{});
  };

  const DbSession::AllVsAllResult reference = run_variant(kSerial);
  EXPECT_EQ(reference.report.batches, 3u);
  EXPECT_GT(reference.hits.size(), reference.pairs_swept / 2);
  for (const EngineVariant& v : kVariants) {
    SCOPED_TRACE("window " + std::to_string(v.window) + " threads " +
                 std::to_string(v.pool_threads));
    const DbSession::AllVsAllResult got = run_variant(v);
    expect_same_report(got.report, reference.report);
    ASSERT_EQ(got.hits.size(), reference.hits.size());
    for (std::size_t h = 0; h < got.hits.size(); ++h) {
      EXPECT_EQ(got.hits[h].a, reference.hits[h].a) << "hit " << h;
      EXPECT_EQ(got.hits[h].b, reference.hits[h].b) << "hit " << h;
      EXPECT_EQ(got.hits[h].score, reference.hits[h].score) << "hit " << h;
    }
  }
}

TEST(EngineDeterminismTest, TracingDoesNotPerturbModeledOutputs) {
  // The observability layer (ISSUE 3) must be a pure observer: every score,
  // CIGAR and modeled statistic bit-identical with tracing + a collector
  // attached vs a bare run, at any worker count. And the modeled per-DPU
  // trace spans must carry the exact cycle totals the collector recorded.
  data::SyntheticConfig data_config = data::s10000_config(20);
  data_config.read_length = 2000;
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  PimAlignerConfig base;
  base.nr_ranks = 2;
  base.batch_pairs = 6;  // 20 pairs -> 4 batches over 2 ranks

  auto run = [&](bool traced, StatsCollector* stats,
                 std::size_t threads) -> RunResult {
    std::optional<ThreadPool> pool;
    PimAlignerConfig config = base;
    config.stats = stats;
    if (threads > 0) {
      pool.emplace(threads);
      config.workers = &*pool;
    }
    trace::clear();
    trace::set_enabled(traced);
    PimAligner aligner(config);
    RunResult r;
    r.report = aligner.align_pairs(pairs, &r.out);
    trace::set_enabled(false);
    return r;
  };

  const RunResult reference = run(false, nullptr, 1);

  for (const std::size_t threads : {1, 2, 0}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    StatsCollector stats;
    const RunResult traced = run(true, &stats, threads);
    expect_identical(traced, reference);

    // The collector saw every committed launch, and its streaming cycle
    // aggregates agree with the per-launch records.
    ASSERT_EQ(stats.launches().size(), traced.report.batches);
    std::uint64_t record_cycle_sum = 0;
    std::uint64_t record_max = 0;
    std::uint64_t record_dpus = 0;
    for (const LaunchRecord& rec : stats.launches()) {
      record_cycle_sum += rec.sum_dpu_cycles;
      record_max = std::max(record_max, rec.max_cycles);
      record_dpus += static_cast<std::uint64_t>(rec.active_dpus);
    }
    EXPECT_EQ(stats.dpu_count(), record_dpus);
    EXPECT_EQ(stats.dpu_cycles_max(), record_max);

    // Acceptance criterion: the per-DPU modeled trace spans reproduce the
    // LaunchStats cycle totals exactly (args.cycles is the integer count;
    // the double timestamps are only its 350 MHz rendering).
    std::uint64_t span_cycle_sum = 0;
    std::uint64_t span_count = 0;
    std::uint64_t span_max = 0;
    for (const trace::Event& e : trace::snapshot()) {
      if (e.pid != trace::kModeledPid || e.phase != 'X') continue;
      if (e.name.find(" d") == std::string::npos) continue;  // "bN dD" lanes
      span_cycle_sum += e.cycles;
      span_max = std::max(span_max, e.cycles);
      ++span_count;
    }
    EXPECT_EQ(span_cycle_sum, record_cycle_sum);
    EXPECT_EQ(span_count, record_dpus);
    EXPECT_EQ(span_max, record_max);
  }
  trace::clear();
}

TEST(EngineDeterminismTest, PipelinedMatchesReferenceAligner) {
  // Belt and braces: the pipelined engine's outputs also pass the
  // against-the-spec verify path (align::banded_adaptive cross-check).
  data::SyntheticConfig data_config = data::s1000_config(24);
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<PairInput> pairs;
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});
  // A read and a prefix view of it share a start address but are two
  // sequences; the interner must not fold them into one.
  const std::string_view read = dataset.pairs[0].first;
  pairs.push_back({read, read.substr(0, 700)});

  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.batch_pairs = 7;
  config.verify = true;  // throws on any mismatch
  PimAligner aligner(config);
  std::vector<PairOutput> out;
  const RunReport report = aligner.align_pairs(pairs, &out);
  EXPECT_EQ(report.total_pairs, pairs.size());
  for (const PairOutput& o : out) EXPECT_TRUE(o.ok);
}

}  // namespace
}  // namespace pimnw::core
