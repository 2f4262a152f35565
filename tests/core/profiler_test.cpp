// Engine-level profiler invariants (ISSUE 5, DESIGN.md §12):
//
//  * Reconciliation: every LaunchRecord's attributed_cycles equals its
//    sum_dpu_cycles, and the run-wide merged profile sums exactly to the
//    total launch cycles — in both engine modes, across pool/tasklet
//    shapes, with and without traceback.
//  * Pure observer: attaching a StatsCollector (and thus collecting the
//    profile) changes no score, CIGAR, modeled cycle or DMA byte.
//  * The verdict follows the regime: the WFA kernel's wavefront streaming
//    is MRAM-bound, tiny pools are reentry-bound, a dense NW workload is
//    pipeline-bound.
//  * Pinned: every emulated counter of a fixed serial NW run (phase rows,
//    DMA histogram, per-tasklet instructions, stall split, verdict) equals
//    recorded constants, so a change to how the kernel charges cannot move
//    them unnoticed.
//  * The stats JSON carries the "profile" object and the provenance stamp;
//    the Perfetto trace carries phase sub-spans whose cycles reconcile too.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "core/pim_kernel.hpp"
#include "core/stats.hpp"
#include "data/synthetic.hpp"
#include "upmem/cost_model.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace pimnw::core {
namespace {

/// 96 pairs x ~300 bp: small enough to run many engine configurations,
/// large enough that every launch touches several DPUs.
const std::vector<PairInput>& small_pairs() {
  static const std::vector<PairInput>* pairs = [] {
    data::SyntheticConfig dc = data::s1000_config(96, 11);
    dc.read_length = 300;
    static const data::PairDataset dataset = data::generate_synthetic(dc);
    auto* v = new std::vector<PairInput>();
    for (const auto& [a, b] : dataset.pairs) v->push_back({a, b});
    return v;
  }();
  return *pairs;
}

/// 768 pairs x ~1 kbp: two pairs for every pool of every DPU of one rank —
/// the dense regime the paper reports 95-99% pipeline utilisation for.
const std::vector<PairInput>& dense_pairs() {
  static const std::vector<PairInput>* pairs = [] {
    data::SyntheticConfig dc = data::s1000_config(768, 12);
    static const data::PairDataset dataset = data::generate_synthetic(dc);
    auto* v = new std::vector<PairInput>();
    for (const auto& [a, b] : dataset.pairs) v->push_back({a, b});
    return v;
  }();
  return *pairs;
}

/// 192 pairs x ~2 kbp for the WFA kernel with traceback: every cost step
/// streams its wavefronts through MRAM.
const std::vector<PairInput>& wfa_pairs() {
  static const std::vector<PairInput>* pairs = [] {
    data::SyntheticConfig dc = data::s1000_config(192, 13);
    dc.read_length = 2000;
    static const data::PairDataset dataset = data::generate_synthetic(dc);
    auto* v = new std::vector<PairInput>();
    for (const auto& [a, b] : dataset.pairs) v->push_back({a, b});
    return v;
  }();
  return *pairs;
}

/// 192 S1000-shaped pairs: three per DPU of one rank, so three pools of
/// each DPU pull a pair.
const std::vector<PairInput>& pinned_pairs() {
  static const std::vector<PairInput>* pairs = [] {
    static const data::PairDataset dataset =
        data::generate_synthetic(data::s1000_config(192, 29));
    auto* v = new std::vector<PairInput>();
    for (const auto& [a, b] : dataset.pairs) v->push_back({a, b});
    return v;
  }();
  return *pairs;
}

PimAlignerConfig base_config() {
  PimAlignerConfig config;
  config.nr_ranks = 1;
  return config;
}

struct RunResult {
  RunReport report;
  std::vector<PairOutput> out;
};

RunResult run(PimAlignerConfig config, const std::vector<PairInput>& pairs) {
  PimAligner aligner(config);
  RunResult r;
  r.report = aligner.align_pairs(pairs, &r.out);
  return r;
}

void expect_reconciles(const StatsCollector& stats) {
  ASSERT_TRUE(stats.has_profile());
  std::uint64_t launch_cycles = 0;
  for (const LaunchRecord& rec : stats.launches()) {
    EXPECT_EQ(rec.attributed_cycles, rec.sum_dpu_cycles)
        << "batch " << rec.batch << " rank " << rec.rank;
    int verdicts = 0;
    for (int v : rec.verdict_dpus) verdicts += v;
    EXPECT_EQ(verdicts, rec.active_dpus);
    launch_cycles += rec.sum_dpu_cycles;
  }
  const upmem::DpuPhaseProfile& prof = stats.profile();
  EXPECT_EQ(prof.cycles, launch_cycles);
  EXPECT_EQ(prof.attributed_cycles(), prof.cycles);
}

TEST(ProfilerTest, ReconciliationAcrossEnginesAndShapes) {
  // Engine on the global pool, or the serial schedule (one worker, window 1).
  ThreadPool one(1);
  const struct {
    bool serial;
    int pools;
    int tasklets;
    bool traceback;
  } cases[] = {
      {false, 6, 4, true},
      {false, 2, 3, true},
      {false, 1, 2, true},
      {false, 6, 4, false},
      {true, 6, 4, true},
      {true, 2, 3, false},
      {true, 1, 2, true},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.serial ? "serial" : "pooled") + " P" +
                 std::to_string(c.pools) + "T" + std::to_string(c.tasklets) +
                 (c.traceback ? " tb" : " score-only"));
    StatsCollector stats;
    PimAlignerConfig config = base_config();
    if (c.serial) {
      config.workers = &one;
      config.batch_window = 1;
    }
    config.pool.pools = c.pools;
    config.pool.tasklets_per_pool = c.tasklets;
    config.align.traceback = c.traceback;
    config.stats = &stats;
    run(config, small_pairs());
    expect_reconciles(stats);
  }
}

/// The emulated counters of one run's merged profile.
struct ProfilePin {
  std::array<std::uint64_t, upmem::kPhaseCount> issue_cycles;
  std::array<std::uint64_t, upmem::kPhaseCount> dma_stall_cycles;
  std::array<std::uint64_t, upmem::kPhaseCount> dma_bytes;
  std::array<std::uint64_t, upmem::kDmaHistBuckets> dma_hist;
  std::array<std::uint64_t, upmem::kMaxTasklets> tasklet_instr;
  std::uint64_t reentry_stall_cycles;
  std::uint64_t mram_contention_cycles;
  upmem::Bottleneck bottleneck;
};

void expect_profile_matches(const upmem::DpuPhaseProfile& got,
                            const ProfilePin& pin) {
  EXPECT_EQ(got.issue_cycles, pin.issue_cycles);
  EXPECT_EQ(got.dma_stall_cycles, pin.dma_stall_cycles);
  EXPECT_EQ(got.dma_bytes, pin.dma_bytes);
  EXPECT_EQ(got.dma_hist, pin.dma_hist);
  EXPECT_EQ(got.tasklet_instr, pin.tasklet_instr);
  EXPECT_EQ(got.reentry_stall_cycles, pin.reentry_stall_cycles);
  EXPECT_EQ(got.mram_contention_cycles, pin.mram_contention_cycles);
  EXPECT_EQ(got.bottleneck, pin.bottleneck);
}

TEST(ProfilerTest, EmulatedCountersPinned) {
  // The serial schedule at w = 127: 127 cells of 46 (traceback) or 31
  // (score-only) instructions split over 4 tasklets unevenly, so the
  // per-tasklet split is pinned along with the phase rows and the DMA
  // histogram. The constants were recorded before the kernel charged each
  // pair's per-anti-diagonal work once instead of per anti-diagonal.
  const ProfilePin traceback_pin = {
      {883200, 2249899634, 7681460, 0, 2358276},
      {153652, 0, 0, 25447496, 14777692},
      {155752, 0, 0, 26117328, 26095608},
      {1, 386, 385, 384440, 1240, 6142, 50984, 0, 0},
      {128000, 0, 0, 0, 194075165, 190510065, 190380024, 190380024,
       190929971, 187418915, 187290984, 187290984, 188200745, 184737965,
       184611864, 184611864, 128000, 0, 0, 0, 128000, 0, 0, 0},
      2370271118,
      26710192,
      upmem::Bottleneck::kReentry};
  const ProfilePin score_only_pin = {
      {883200, 1518240569, 7681460, 0, 0},
      {153652, 0, 0, 0, 0},
      {155752, 0, 0, 0, 0},
      {0, 384, 384, 365, 1235, 0, 0, 0, 0},
      {128000, 0, 0, 0, 131377769, 128480508, 128480508, 128480508,
       129248779, 126395828, 126395828, 126395828, 127402309, 124587788,
       124587788, 124587788, 128000, 0, 0, 0, 128000, 0, 0, 0},
      1626157315,
      103912,
      upmem::Bottleneck::kReentry};

  ThreadPool one(1);
  for (const bool traceback : {true, false}) {
    SCOPED_TRACE(traceback ? "traceback" : "score-only");
    StatsCollector stats;
    PimAlignerConfig config = base_config();
    config.workers = &one;
    config.batch_window = 1;
    config.align.band_width = 127;
    config.align.traceback = traceback;
    config.stats = &stats;
    run(config, pinned_pairs());
    ASSERT_TRUE(stats.has_profile());
    expect_profile_matches(stats.profile(),
                           traceback ? traceback_pin : score_only_pin);
    expect_reconciles(stats);
  }
}

TEST(ProfilerTest, ProfilerIsPureObserver) {
  // Same run with and without a collector: every output and every modeled
  // report number is bit-identical.
  PimAlignerConfig config = base_config();
  const RunResult plain = run(config, small_pairs());
  StatsCollector stats;
  config.stats = &stats;
  const RunResult observed = run(config, small_pairs());
  ASSERT_TRUE(stats.has_profile());

  ASSERT_EQ(plain.out.size(), observed.out.size());
  for (std::size_t p = 0; p < plain.out.size(); ++p) {
    EXPECT_EQ(plain.out[p].score, observed.out[p].score) << "pair " << p;
    EXPECT_EQ(plain.out[p].cigar, observed.out[p].cigar) << "pair " << p;
    EXPECT_EQ(plain.out[p].dpu_pool_cycles, observed.out[p].dpu_pool_cycles)
        << "pair " << p;
    EXPECT_EQ(plain.out[p].dpu_dma_bytes, observed.out[p].dpu_dma_bytes)
        << "pair " << p;
  }
  EXPECT_EQ(plain.report.makespan_seconds, observed.report.makespan_seconds);
  EXPECT_EQ(plain.report.total_instructions,
            observed.report.total_instructions);
  EXPECT_EQ(plain.report.total_dma_bytes, observed.report.total_dma_bytes);
}

TEST(ProfilerTest, VerdictIsMramBoundUnderWfaTraceback) {
  // Each WFA cost step reads its source wavefronts from MRAM and writes
  // three rows back; with traceback every step is kept, so on ~2 kb pairs
  // that traffic, not the pipeline, bounds the launch.
  StatsCollector stats;
  PimAlignerConfig config = base_config();
  config.kernel = &wfa_kernel();
  config.stats = &stats;
  run(config, wfa_pairs());
  ASSERT_TRUE(stats.has_profile());
  EXPECT_EQ(stats.profile().bottleneck, upmem::Bottleneck::kMram);
  const auto wf = static_cast<std::size_t>(upmem::Phase::kBtDma);
  EXPECT_GT(stats.profile().dma_bytes[wf], 0u);
  expect_reconciles(stats);
}

TEST(ProfilerTest, TinyPoolsAreReentryBound) {
  // P*T = 2 < kPipelineReentry: the issue interval stays 11, so most cycles
  // are re-entry slack whatever the workload.
  StatsCollector stats;
  PimAlignerConfig config = base_config();
  config.pool.pools = 1;
  config.pool.tasklets_per_pool = 2;
  config.stats = &stats;
  run(config, small_pairs());
  ASSERT_TRUE(stats.has_profile());
  EXPECT_EQ(stats.profile().bottleneck, upmem::Bottleneck::kReentry);
  expect_reconciles(stats);
}

TEST(ProfilerTest, DenseWorkloadIsPipelineBound) {
  // Two pairs per pool of a full rank at 1 kbp: the paper's high-occupancy
  // regime. The attributed stall must stay within a few percent (§5 reports
  // 95-99% pipeline utilisation; the modeled default lands ~98%).
  StatsCollector stats;
  PimAlignerConfig config = base_config();
  config.stats = &stats;
  run(config, dense_pairs());
  ASSERT_TRUE(stats.has_profile());
  const upmem::DpuPhaseProfile& prof = stats.profile();
  EXPECT_EQ(prof.bottleneck, upmem::Bottleneck::kPipeline);
  EXPECT_LT(prof.stall_fraction(), 0.05);
  expect_reconciles(stats);
}

TEST(ProfilerTest, JsonCarriesProfileAndProvenance) {
  StatsCollector stats;
  PimAlignerConfig config = base_config();
  config.stats = &stats;
  const RunResult r = run(config, small_pairs());
  std::ostringstream os;
  stats.write_json(os, r.report);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"bottleneck\""), std::string::npos);
  EXPECT_NE(json.find("\"bt_dma\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict_dpus\""), std::string::npos);
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(json.find("\"timestamp\""), std::string::npos);
  // The engine stamped the Params snapshot into the provenance block.
  EXPECT_NE(json.find("\"batch_window\""), std::string::npos);
}

TEST(ProfilerTest, TracePhaseSubSpansReconcile) {
  trace::clear();
  trace::set_enabled(true);
  StatsCollector stats;
  PimAlignerConfig config = base_config();
  config.stats = &stats;
  run(config, small_pairs());
  trace::set_enabled(false);
  ASSERT_TRUE(stats.has_profile());

  // Sum the cycles of every phase sub-span (and reentry filler) on the
  // modeled timeline: tiling the DPU spans must preserve the cycle total.
  std::uint64_t subspan_cycles = 0;
  bool saw_util_counter = false;
  bool saw_mram_counter = false;
  for (const trace::Event& e : trace::snapshot()) {
    if (e.pid != trace::kModeledPid) continue;
    if (e.phase == 'C') {
      saw_util_counter |= e.name == "modeled pipeline util %";
      saw_mram_counter |= e.name == "modeled MRAM stall %";
      continue;
    }
    for (int ph = 0; ph < upmem::kPhaseCount; ++ph) {
      if (e.name == upmem::phase_name(static_cast<upmem::Phase>(ph))) {
        subspan_cycles += e.cycles;
      }
    }
    if (e.name == "reentry stall") subspan_cycles += e.cycles;
  }
  EXPECT_EQ(subspan_cycles, stats.profile().cycles);
  EXPECT_TRUE(saw_util_counter);
  EXPECT_TRUE(saw_mram_counter);
  trace::clear();
}

}  // namespace
}  // namespace pimnw::core
