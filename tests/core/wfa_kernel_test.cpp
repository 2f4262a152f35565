// PiM-WFA kernel (DESIGN.md §16): cross-kernel agreement and profiler
// reconciliation.
//
//  * Agreement matrix: DPU WfaKernel vs host align::wfa_align vs
//    align::nw_full on divergence-stratified randomized pairs — scores
//    bit-identical, CIGARs bit-identical to the host WFA and valid against
//    the raw sequences, and the nullopt ↔ kStatusUnreachable correspondence
//    exact (including the s > wfa_max_cost boundary by one).
//  * Empty-side pairs take the closed-form gap path on the DPU too.
//  * Profiler reconciliation (attributed_cycles == cycles) holds for BOTH
//    registered kernels across both engine modes.
//  * Sessions run the WFA kernel against the resident database with scores
//    matching host wfa_score.
//  * The planner geometry (pair_scratch_bytes) is monotone in each length —
//    the contract mram_layout's stride computation leans on.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "align/nw_full.hpp"
#include "align/wfa.hpp"
#include "core/host.hpp"
#include "core/session.hpp"
#include "core/stats.hpp"
#include "core/wfa_kernel.hpp"
#include "data/mutate.hpp"
#include "dna/cigar.hpp"
#include "upmem/cost_model.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pimnw::core {
namespace {

struct TestPair {
  std::string a;
  std::string b;
  double divergence;
};

/// Divergence-stratified random pairs: five error-rate strata from identical
/// to 20% (substitutions and affine indels mixed), lengths 100-600 bp. The
/// high strata intentionally push some pairs past the default cost cap so
/// the unreachable path is exercised inside the same matrix.
std::vector<TestPair> stratified_pairs(std::size_t per_stratum,
                                       std::uint64_t seed) {
  const double strata[] = {0.0, 0.01, 0.05, 0.10, 0.20};
  Xoshiro256 rng(seed);
  std::vector<TestPair> pairs;
  for (const double divergence : strata) {
    data::ErrorModel model;
    model.error_rate = divergence;
    for (std::size_t i = 0; i < per_stratum; ++i) {
      const std::size_t len = 100 + rng.below(500);
      TestPair pair;
      pair.a = data::random_dna(len, rng);
      pair.b = divergence == 0.0 ? pair.a : data::mutate(pair.a, model, rng);
      pair.divergence = divergence;
      pairs.push_back(std::move(pair));
    }
  }
  return pairs;
}

PimAlignerConfig wfa_config() {
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.kernel = &wfa_kernel();
  return config;
}

std::vector<PairOutput> run_pim(const PimAlignerConfig& config,
                                const std::vector<PairInput>& inputs) {
  PimAligner aligner(config);
  std::vector<PairOutput> outputs;
  aligner.align_pairs(inputs, &outputs);
  return outputs;
}

TEST(WfaKernelAgreement, MatrixAcrossDivergenceStrata) {
  const std::vector<TestPair> pairs = stratified_pairs(45, 77);  // 225 pairs
  ASSERT_GE(pairs.size(), 200u);
  std::vector<PairInput> inputs;
  for (const TestPair& pair : pairs) inputs.push_back({pair.a, pair.b});

  PimAlignerConfig config = wfa_config();
  const std::vector<PairOutput> outputs = run_pim(config, inputs);
  ASSERT_EQ(outputs.size(), pairs.size());

  align::WfaOptions options;
  options.max_cost = config.align.wfa_max_cost;
  std::size_t reachable = 0;
  std::size_t unreachable = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i) + " divergence " +
                 std::to_string(pairs[i].divergence));
    const std::optional<align::AlignResult> host = align::wfa_align(
        pairs[i].a, pairs[i].b, config.align.scoring, options);
    ASSERT_EQ(outputs[i].ok, host.has_value());
    if (!host.has_value()) {
      EXPECT_EQ(outputs[i].status, PairStatus::kUnreachable);
      ++unreachable;
      continue;
    }
    ++reachable;
    // Score: bit-identical to the host WFA, which is itself the exact
    // global optimum — pinned against the full-matrix DP.
    EXPECT_EQ(outputs[i].score, host->score);
    const align::AlignResult full =
        align::nw_full(pairs[i].a, pairs[i].b, config.align.scoring);
    EXPECT_EQ(outputs[i].score, full.score);
    // CIGAR: bit-identical run list, and valid against the sequences.
    EXPECT_EQ(outputs[i].cigar, host->cigar);
    EXPECT_EQ(dna::validate_cigar(outputs[i].cigar, pairs[i].a, pairs[i].b),
              "");
  }
  // The strata must actually cover both regimes or the matrix proves less
  // than it claims.
  EXPECT_GE(reachable, 100u);
  EXPECT_GE(unreachable, 10u);
}

TEST(WfaKernelAgreement, ScoreOnlyMatchesHostWfaScore) {
  const std::vector<TestPair> pairs = stratified_pairs(12, 123);
  std::vector<PairInput> inputs;
  for (const TestPair& pair : pairs) inputs.push_back({pair.a, pair.b});

  PimAlignerConfig config = wfa_config();
  config.align.traceback = false;
  const std::vector<PairOutput> outputs = run_pim(config, inputs);

  align::WfaOptions options;
  options.max_cost = config.align.wfa_max_cost;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    const std::optional<align::Score> host = align::wfa_score(
        pairs[i].a, pairs[i].b, config.align.scoring, options);
    ASSERT_EQ(outputs[i].ok, host.has_value());
    if (host.has_value()) {
      EXPECT_EQ(outputs[i].score, *host);
      EXPECT_TRUE(outputs[i].cigar.empty());
    }
  }
}

TEST(WfaKernelAgreement, UnreachableBoundaryIsExact) {
  // One substitution costs exactly x = 2(match+mismatch) = 12 under the
  // default scoring. The cap comparison is s > wfa_max_cost, so cap 12
  // reaches the end and cap 11 does not — on the host and on the DPU.
  const std::string a = "ACGTACGTACGTACGTACGTACGTACGTACGT";
  std::string b = a;
  b[13] = b[13] == 'A' ? 'C' : 'A';
  const std::vector<PairInput> inputs = {{a, b}};

  for (const std::uint64_t cap : {std::uint64_t{12}, std::uint64_t{11}}) {
    SCOPED_TRACE("wfa_max_cost " + std::to_string(cap));
    PimAlignerConfig config = wfa_config();
    config.align.wfa_max_cost = cap;
    const std::vector<PairOutput> outputs = run_pim(config, inputs);
    align::WfaOptions options;
    options.max_cost = cap;
    const std::optional<align::AlignResult> host =
        align::wfa_align(a, b, config.align.scoring, options);
    EXPECT_EQ(host.has_value(), cap == 12);
    ASSERT_EQ(outputs[0].ok, host.has_value());
    if (host.has_value()) {
      EXPECT_EQ(outputs[0].score, host->score);
      EXPECT_EQ(outputs[0].cigar, host->cigar);
    } else {
      EXPECT_EQ(outputs[0].status, PairStatus::kUnreachable);
    }
  }
}

TEST(WfaKernelAgreement, EmptySidesTakeClosedFormGapPath) {
  const std::string seq = "ACGTTGCAACGT";
  const std::vector<PairInput> inputs = {
      {seq, std::string_view()},
      {std::string_view(), seq},
      {std::string_view(), std::string_view()},
  };
  PimAlignerConfig config = wfa_config();
  const std::vector<PairOutput> outputs = run_pim(config, inputs);
  align::WfaOptions options;
  options.max_cost = config.align.wfa_max_cost;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    const std::optional<align::AlignResult> host = align::wfa_align(
        inputs[i].a, inputs[i].b, config.align.scoring, options);
    ASSERT_TRUE(host.has_value());
    ASSERT_TRUE(outputs[i].ok);
    EXPECT_EQ(outputs[i].score, host->score);
    EXPECT_EQ(outputs[i].cigar, host->cigar);
  }
  EXPECT_EQ(outputs[0].score,
            -config.align.scoring.gap_cost(seq.size()));
  EXPECT_EQ(outputs[2].score, 0);
}

TEST(WfaKernelAgreement, PooledAndSerialEnginesProduceIdenticalOutputs) {
  // The engine on the global pool (per-worker workspaces, DPUs executed out
  // of order) against the serial schedule: one worker, one batch in flight.
  const std::vector<TestPair> pairs = stratified_pairs(10, 99);
  std::vector<PairInput> inputs;
  for (const TestPair& pair : pairs) inputs.push_back({pair.a, pair.b});

  ThreadPool one(1);
  PimAlignerConfig serial = wfa_config();
  serial.workers = &one;
  serial.batch_window = 1;

  const std::vector<PairOutput> out_a = run_pim(wfa_config(), inputs);
  const std::vector<PairOutput> out_b = run_pim(serial, inputs);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t i = 0; i < out_a.size(); ++i) {
    SCOPED_TRACE("pair " + std::to_string(i));
    EXPECT_EQ(out_a[i].ok, out_b[i].ok);
    EXPECT_EQ(out_a[i].score, out_b[i].score);
    EXPECT_EQ(out_a[i].cigar, out_b[i].cigar);
    EXPECT_EQ(out_a[i].dpu_pool_cycles, out_b[i].dpu_pool_cycles);
    EXPECT_EQ(out_a[i].dpu_dma_bytes, out_b[i].dpu_dma_bytes);
  }
}

TEST(WfaKernelAgreement, EngineVerifyPassesAgainstHostReference) {
  // config.verify cross-checks every DPU output against the kernel's own
  // host_reference inside the engine (throwing on mismatch) — run it over a
  // mixed stratum as a second, independent bit-identity gate.
  const std::vector<TestPair> pairs = stratified_pairs(8, 31);
  std::vector<PairInput> inputs;
  for (const TestPair& pair : pairs) inputs.push_back({pair.a, pair.b});
  PimAlignerConfig config = wfa_config();
  config.verify = true;
  const std::vector<PairOutput> outputs = run_pim(config, inputs);
  EXPECT_EQ(outputs.size(), inputs.size());
}

void expect_reconciles(const StatsCollector& stats) {
  ASSERT_TRUE(stats.has_profile());
  std::uint64_t launch_cycles = 0;
  for (const LaunchRecord& rec : stats.launches()) {
    EXPECT_EQ(rec.attributed_cycles, rec.sum_dpu_cycles)
        << "batch " << rec.batch << " rank " << rec.rank;
    launch_cycles += rec.sum_dpu_cycles;
  }
  const upmem::DpuPhaseProfile& prof = stats.profile();
  EXPECT_EQ(prof.cycles, launch_cycles);
  EXPECT_EQ(prof.attributed_cycles(), prof.cycles);
}

TEST(WfaKernelProfiler, ReconciliationForBothKernelsAcrossEngines) {
  const std::vector<TestPair> pairs = stratified_pairs(8, 55);
  std::vector<PairInput> inputs;
  for (const TestPair& pair : pairs) inputs.push_back({pair.a, pair.b});

  const PimKernel* kernels[] = {&nw_kernel(), &wfa_kernel()};
  ThreadPool one(1);
  for (const PimKernel* kernel : kernels) {
    for (const bool serial : {false, true}) {
      for (const bool traceback : {true, false}) {
        SCOPED_TRACE(std::string(kernel->name()) +
                     (serial ? " serial" : " pooled") +
                     (traceback ? " tb" : " score-only"));
        StatsCollector stats;
        PimAlignerConfig config;
        config.nr_ranks = 1;
        config.kernel = kernel;
        if (serial) {
          config.workers = &one;
          config.batch_window = 1;
        }
        config.align.traceback = traceback;
        config.stats = &stats;
        run_pim(config, inputs);
        expect_reconciles(stats);
      }
    }
  }
}

TEST(WfaKernelSession, SessionRoundsMatchHostWfaScore) {
  Xoshiro256 rng(7);
  data::ErrorModel model;
  model.error_rate = 0.03;
  std::vector<std::string> db;
  const std::string root = data::random_dna(400, rng);
  for (int i = 0; i < 10; ++i) db.push_back(data::mutate(root, model, rng));

  PimAlignerConfig config = wfa_config();
  DbSession session(db, config);
  std::vector<IndexPair> indices;
  for (std::uint32_t i = 0; i < db.size(); ++i) {
    for (std::uint32_t j = i + 1; j < db.size(); ++j) {
      indices.push_back({i, j});
    }
  }
  std::vector<PairOutput> outputs;
  session.align_pairs(indices, &outputs);
  ASSERT_EQ(outputs.size(), indices.size());

  align::WfaOptions options;
  options.max_cost = config.align.wfa_max_cost;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    SCOPED_TRACE("pair " + std::to_string(k));
    const std::optional<align::Score> host =
        align::wfa_score(db[indices[k].a], db[indices[k].b],
                         config.align.scoring, options);
    ASSERT_EQ(outputs[k].ok, host.has_value());
    if (host.has_value()) {
      EXPECT_EQ(outputs[k].score, *host);
    }
  }
}

TEST(WfaKernelPlanner, ScratchBytesMonotoneInEachLength) {
  AlignConfig config;
  const WfaKernel& kernel = static_cast<const WfaKernel&>(wfa_kernel());
  for (const bool traceback : {true, false}) {
    config.traceback = traceback;
    std::uint64_t prev = 0;
    for (std::uint64_t len = 0; len <= 2048; len += 64) {
      const std::uint64_t now = kernel.pair_scratch_bytes(len, len, config);
      EXPECT_GE(now, prev) << "len " << len;
      prev = now;
      // Cross-terms: growing one side never shrinks the footprint.
      EXPECT_GE(kernel.pair_scratch_bytes(len + 17, len, config), now);
      EXPECT_GE(kernel.pair_scratch_bytes(len, len + 17, config), now);
    }
  }
}

TEST(WfaKernelPlanner, AdmissionRejectsOversizedSides) {
  AlignConfig config;
  PoolConfig pools;
  const PimKernel& kernel = wfa_kernel();
  EXPECT_TRUE(kernel.pair_admissible(kWfaMaxSeqBases, kWfaMaxSeqBases,
                                     config, pools));
  EXPECT_FALSE(kernel.pair_admissible(kWfaMaxSeqBases + 1, 100, config,
                                      pools));
  EXPECT_FALSE(kernel.pair_admissible(100, kWfaMaxSeqBases + 1, config,
                                      pools));
}

TEST(WfaKernelPlanner, OversizedPairsReportStatusNotCrash) {
  Xoshiro256 rng(11);
  const std::string big_a = data::random_dna(kWfaMaxSeqBases + 100, rng);
  const std::string big_b = data::random_dna(kWfaMaxSeqBases + 100, rng);
  const std::string ok_a = "ACGTACGTACGT";
  const std::vector<PairInput> inputs = {{big_a, big_b}, {ok_a, ok_a}};
  PimAlignerConfig config = wfa_config();
  const std::vector<PairOutput> outputs = run_pim(config, inputs);
  EXPECT_EQ(outputs[0].status, PairStatus::kOversized);
  EXPECT_FALSE(outputs[0].ok);
  EXPECT_TRUE(outputs[1].ok);
  EXPECT_EQ(outputs[1].score,
            static_cast<align::Score>(config.align.scoring.match) *
                static_cast<align::Score>(ok_a.size()));
}

}  // namespace
}  // namespace pimnw::core
