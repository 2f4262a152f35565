// Backend layer + dispatcher (ISSUE 4): PimBackend bit-identity with the
// direct host path, cross-backend score agreement against full DP, routing
// policies, in-order merge, accounting resets and a pair's error surfacing
// at its own ticket. Suite names carry "Backend"/"Dispatch" so the tsan
// preset's test filter includes them (the dispatcher is the one place all
// backends run concurrently); CpuBatchTest falls outside the filter, and
// BackendTicketsTest runs CpuBackend under it.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "align/nw_full.hpp"
#include "align/verify.hpp"
#include "baseline/ksw2_like.hpp"
#include "core/backend.hpp"
#include "core/dispatch.hpp"
#include "core/wfa_kernel.hpp"
#include "data/synthetic.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pimnw::core {
namespace {

/// Synthetic pairs plus the owning dataset (PairInput views borrow from it).
struct TestPairs {
  data::PairDataset dataset;
  std::vector<PairInput> pairs;
};

TestPairs make_pairs(std::size_t count, std::size_t length, double error_rate,
                     std::uint64_t seed) {
  TestPairs t;
  data::SyntheticConfig config;
  config.pair_count = count;
  config.read_length = length;
  config.errors.error_rate = error_rate;
  config.seed = seed;
  t.dataset = data::generate_synthetic(config);
  for (const auto& [a, b] : t.dataset.pairs) t.pairs.push_back({a, b});
  return t;
}

// The acceptance pin: routing align_pairs work through PimBackend +
// Dispatcher must not change a single bit of any output or of the modeled
// report — scores, CIGARs, per-pair cycle counts, DMA bytes, timeline.
TEST(BackendPimBitIdentity, DispatcherMatchesDirectAlignPairs) {
  const TestPairs t = make_pairs(48, 400, 0.08, 33);
  PimAlignerConfig config;
  config.nr_ranks = 2;
  config.batch_pairs = 16;  // several batches, pipelined engine

  std::vector<PairOutput> direct_out;
  const RunReport direct = PimAligner(config).align_pairs(t.pairs, &direct_out);

  PimBackend pim({config});
  Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                         .single = BackendKind::kPim},
                        {&pim});
  std::vector<PairOutput> routed_out;
  const DispatchReport dispatched = dispatcher.align(t.pairs, &routed_out);

  ASSERT_EQ(routed_out.size(), direct_out.size());
  for (std::size_t p = 0; p < direct_out.size(); ++p) {
    EXPECT_EQ(routed_out[p].ok, direct_out[p].ok) << "pair " << p;
    EXPECT_EQ(routed_out[p].score, direct_out[p].score) << "pair " << p;
    EXPECT_EQ(routed_out[p].cigar.to_string(), direct_out[p].cigar.to_string())
        << "pair " << p;
    EXPECT_EQ(routed_out[p].dpu_pool_cycles, direct_out[p].dpu_pool_cycles)
        << "pair " << p;
    EXPECT_EQ(routed_out[p].dpu_dma_bytes, direct_out[p].dpu_dma_bytes)
        << "pair " << p;
  }

  ASSERT_EQ(dispatched.backends.size(), 1u);
  const RunReport& via = dispatched.backends[0].pim;
  EXPECT_EQ(via.makespan_seconds, direct.makespan_seconds);
  EXPECT_EQ(via.transfer_seconds, direct.transfer_seconds);
  EXPECT_EQ(via.host_prep_seconds, direct.host_prep_seconds);
  EXPECT_EQ(via.load_imbalance, direct.load_imbalance);
  EXPECT_EQ(via.batches, direct.batches);
  EXPECT_EQ(via.total_pairs, direct.total_pairs);
  EXPECT_EQ(via.bytes_to_dpus, direct.bytes_to_dpus);
  EXPECT_EQ(via.bytes_from_dpus, direct.bytes_from_dpus);
  EXPECT_EQ(via.total_instructions, direct.total_instructions);
  EXPECT_EQ(via.total_dma_bytes, direct.total_dma_bytes);
  EXPECT_EQ(dispatched.backends[0].modeled_seconds, direct.makespan_seconds);
}

// Randomized agreement: with the band wide enough to cover the whole DP
// matrix, all three backends are exact, so every score must equal the
// nw_full optimum and every CIGAR must achieve it (align::check_alignment
// recomputes the score from the path).
TEST(BackendAgreement, AllBackendsMatchFullDpOnRandomPairs) {
  // Reads short enough that the DPU's 128-wide band (the widest that fits
  // its 64 KB WRAM) covers every diagonal of the DP matrix: banded == full.
  const TestPairs t = make_pairs(24, 56, 0.10, 91);
  const align::Scoring scoring;  // every backend's default

  PimAlignerConfig pim_config;
  pim_config.nr_ranks = 1;
  pim_config.align.band_width = 128;
  PimBackend pim({pim_config});
  baseline::Ksw2Options cpu_options;
  cpu_options.band_width = 512;
  CpuBackend::Config cpu_config;
  cpu_config.scoring = scoring;
  cpu_config.options = cpu_options;
  CpuBackend cpu(cpu_config);
  WfaBackend::Config wfa_config;
  wfa_config.scoring = scoring;
  WfaBackend wfa(wfa_config);

  std::vector<AlignerBackend*> backends{&pim, &cpu, &wfa};
  for (AlignerBackend* backend : backends) {
    const AlignerBackend::Ticket ticket = backend->submit(t.pairs);
    const std::vector<PairOutput> outputs = backend->wait(ticket);
    ASSERT_EQ(outputs.size(), t.pairs.size());
    for (std::size_t p = 0; p < t.pairs.size(); ++p) {
      const align::AlignResult ref =
          align::nw_full(t.pairs[p].a, t.pairs[p].b, scoring);
      ASSERT_TRUE(outputs[p].ok)
          << backend_kind_name(backend->kind()) << " pair " << p;
      EXPECT_EQ(outputs[p].score, ref.score)
          << backend_kind_name(backend->kind()) << " pair " << p;
      align::AlignResult as_result;
      as_result.score = outputs[p].score;
      as_result.cigar = outputs[p].cigar;
      as_result.reached_end = outputs[p].ok;
      EXPECT_EQ(align::check_alignment(as_result, t.pairs[p].a, t.pairs[p].b,
                                       scoring),
                "")
          << backend_kind_name(backend->kind()) << " pair " << p;
    }
    (void)backend->drain();
  }
}

// One admission policy across the Dispatcher's backends: through kSingle to
// each kind, a pair with an N resolves kInvalidInput on its own (the CPU
// backend threw for the whole call, WFA aligned the N as a mismatch), and
// the valid pair beside it aligns exactly as in a call without it.
TEST(BackendAdmission, NonAcgtPairResolvesInvalidInputOnEveryKind) {
  const std::vector<PairInput> mixed = {{"ACGTACGTAC", "ACGTACGAAC"},
                                        {"ACGTNNGTAC", "ACGTACGAAC"}};
  const std::vector<PairInput> valid_only = {mixed[0]};
  PimAlignerConfig pim_config;
  pim_config.nr_ranks = 1;
  PimBackend pim({pim_config});
  CpuBackend cpu({});
  WfaBackend wfa({});
  for (AlignerBackend* backend :
       std::vector<AlignerBackend*>{&pim, &cpu, &wfa}) {
    const char* const kind = backend_kind_name(backend->kind());
    Dispatcher dispatcher(
        {.policy = RoutePolicy::kSingle, .single = backend->kind()},
        {backend});
    std::vector<PairOutput> got;
    std::vector<PairOutput> alone;
    (void)dispatcher.align(mixed, &got);
    (void)dispatcher.align(valid_only, &alone);
    ASSERT_EQ(got.size(), 2u) << kind;
    ASSERT_EQ(alone.size(), 1u) << kind;
    EXPECT_EQ(got[1].status, PairStatus::kInvalidInput) << kind;
    EXPECT_FALSE(got[1].ok) << kind;
    EXPECT_EQ(got[0].status, PairStatus::kOk) << kind;
    EXPECT_EQ(got[0].status, alone[0].status) << kind;
    EXPECT_EQ(got[0].ok, alone[0].ok) << kind;
    EXPECT_EQ(got[0].score, alone[0].score) << kind;
    EXPECT_EQ(got[0].cigar.to_string(), alone[0].cigar.to_string()) << kind;
    EXPECT_EQ(got[0].cells, alone[0].cells) << kind;
  }
}

TEST(DispatchRouting, ThresholdSplitsByLongerSequence) {
  const TestPairs shorts = make_pairs(6, 80, 0.05, 1);
  const TestPairs longs = make_pairs(4, 300, 0.05, 2);
  std::vector<PairInput> mixed;
  for (std::size_t i = 0; i < shorts.pairs.size(); ++i) {
    mixed.push_back(shorts.pairs[i]);
    if (i < longs.pairs.size()) mixed.push_back(longs.pairs[i]);
  }

  CpuBackend cpu({});
  WfaBackend wfa({});
  Dispatcher dispatcher({.policy = RoutePolicy::kLengthThreshold,
                         .length_threshold = 200,
                         .short_backend = BackendKind::kCpu,
                         .long_backend = BackendKind::kWfa},
                        {&cpu, &wfa});
  std::vector<PairOutput> out;
  const DispatchReport report = dispatcher.align(mixed, &out);
  EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kCpu)],
            shorts.pairs.size());
  EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kWfa)],
            longs.pairs.size());
  EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kPim)], 0u);
  EXPECT_EQ(report.aligned, mixed.size());
}

TEST(DispatchRouting, CostModelPicksCheapestEstimate) {
  const TestPairs t = make_pairs(8, 100, 0.05, 3);

  // Make one backend's estimate absurdly cheap, then the other's: the cost
  // policy must follow the estimates, whichever way they point.
  {
    CpuBackend::Config fast_cpu;
    fast_cpu.cells_per_second = 1e15;
    WfaBackend::Config slow_wfa;
    slow_wfa.cells_per_second = 1.0;
    CpuBackend cpu(fast_cpu);
    WfaBackend wfa(slow_wfa);
    Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
    std::vector<PairOutput> out;
    const DispatchReport report = dispatcher.align(t.pairs, &out);
    EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kCpu)],
              t.pairs.size());
  }
  {
    CpuBackend::Config slow_cpu;
    slow_cpu.cells_per_second = 1.0;
    WfaBackend::Config fast_wfa;
    fast_wfa.cells_per_second = 1e15;
    CpuBackend cpu(slow_cpu);
    WfaBackend wfa(fast_wfa);
    Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
    std::vector<PairOutput> out;
    const DispatchReport report = dispatcher.align(t.pairs, &out);
    EXPECT_EQ(report.routed[static_cast<int>(BackendKind::kWfa)],
              t.pairs.size());
  }
}

// PiM-WFA holds at most kWfaMaxSeqBases per side in WRAM, so 9 kb pairs
// must go to PiM-NW however cheap PiM-WFA's estimate looks, and its instant
// kOversized rejections must not calibrate its cost scale towards zero.
TEST(DispatchRouting, CostModelSkipsBackendsThatCannotHoldThePair) {
  const TestPairs t = make_pairs(4, 9000, 0.05, 10);
  PimAlignerConfig nw_config;
  nw_config.nr_ranks = 1;
  nw_config.align.traceback = false;
  PimAlignerConfig wfa_config = nw_config;
  wfa_config.kernel = &wfa_kernel();
  wfa_config.align.wfa_max_cost = 0;
  const auto pim = static_cast<std::size_t>(BackendKind::kPim);

  {
    PimBackend nw({nw_config});
    PimBackend wfa({wfa_config});
    ASSERT_EQ(wfa.kind(), BackendKind::kPimWfa);
    ASSERT_EQ(wfa.capabilities().max_pair_length, kWfaMaxSeqBases);
    Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&nw, &wfa});
    dispatcher.calibrate(t.pairs, 2);
    EXPECT_EQ(wfa.cost_scale(), 1.0);  // admitted no probe pair
    std::vector<PairOutput> out;
    const DispatchReport report = dispatcher.align(t.pairs, &out);
    EXPECT_EQ(report.routed[pim], t.pairs.size());
    EXPECT_EQ(report.aligned, t.pairs.size());
  }

  // A low divergence prior makes PiM-WFA's estimate the cheapest one.
  PimBackend nw({nw_config});
  PimBackend wfa({wfa_config, 0.001});
  const PairInput& pair = t.pairs[0];
  ASSERT_LT(wfa.estimate_seconds(pair.a.size(), pair.b.size()),
            nw.estimate_seconds(pair.a.size(), pair.b.size()));
  Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&nw, &wfa});
  EXPECT_EQ(dispatcher.min_estimate_seconds(pair.a.size(), pair.b.size()),
            nw.estimate_seconds(pair.a.size(), pair.b.size()));
  std::vector<PairOutput> out;
  const DispatchReport report =
      dispatcher.align(std::span<const PairInput>(&pair, 1), &out);
  EXPECT_EQ(report.routed[pim], 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].status, PairStatus::kOk);
}

TEST(DispatchMerge, OutputsStayInInputOrderAcrossBackends) {
  // Interleaved short/long pairs split across two backends; the merged
  // outputs must line up with the per-pair full-DP optimum slot by slot.
  const TestPairs shorts = make_pairs(10, 60, 0.08, 4);
  const TestPairs longs = make_pairs(10, 150, 0.08, 5);
  std::vector<PairInput> mixed;
  for (std::size_t i = 0; i < 10; ++i) {
    mixed.push_back(shorts.pairs[i]);
    mixed.push_back(longs.pairs[i]);
  }

  baseline::Ksw2Options wide;
  wide.band_width = 512;
  CpuBackend cpu({.options = wide});
  WfaBackend wfa({});
  Dispatcher dispatcher({.policy = RoutePolicy::kLengthThreshold,
                         .length_threshold = 120,
                         .short_backend = BackendKind::kCpu,
                         .long_backend = BackendKind::kWfa},
                        {&cpu, &wfa});
  std::vector<PairOutput> out;
  (void)dispatcher.align(mixed, &out);
  ASSERT_EQ(out.size(), mixed.size());
  for (std::size_t p = 0; p < mixed.size(); ++p) {
    EXPECT_EQ(out[p].score,
              align::nw_full(mixed[p].a, mixed[p].b, align::Scoring{}).score)
        << "slot " << p;
  }
}

TEST(DispatchConfigTest, RejectsDuplicateAndMissingBackends) {
  CpuBackend cpu_a({});
  CpuBackend cpu_b({});
  EXPECT_THROW(Dispatcher({}, {&cpu_a, &cpu_b}), CheckError);
  EXPECT_THROW(Dispatcher({}, {}), CheckError);

  // kSingle pointing at an unregistered kind fails at routing time.
  const TestPairs t = make_pairs(2, 50, 0.05, 6);
  Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                         .single = BackendKind::kPim},
                        {&cpu_a});
  std::vector<PairOutput> out;
  EXPECT_THROW((void)dispatcher.align(t.pairs, &out), CheckError);
}

TEST(BackendTicketsTest, OverlappingSubmitsResolveIndependently) {
  const TestPairs first = make_pairs(12, 70, 0.06, 7);
  const TestPairs second = make_pairs(12, 70, 0.06, 8);
  ThreadPool workers(3);
  WfaBackend wfa({}, &workers);

  // Both tickets in flight at once; waited out of submission order.
  const auto t1 = wfa.submit(first.pairs);
  const auto t2 = wfa.submit(second.pairs);
  const std::vector<PairOutput> out2 = wfa.wait(t2);
  const std::vector<PairOutput> out1 = wfa.wait(t1);
  ASSERT_EQ(out1.size(), first.pairs.size());
  ASSERT_EQ(out2.size(), second.pairs.size());
  for (std::size_t p = 0; p < first.pairs.size(); ++p) {
    EXPECT_EQ(out1[p].score,
              align::nw_full(first.pairs[p].a, first.pairs[p].b,
                             align::Scoring{})
                  .score);
  }

  const BackendReport report = wfa.drain();
  EXPECT_EQ(report.submissions, 2u);
  EXPECT_EQ(report.total_pairs, first.pairs.size() + second.pairs.size());
  EXPECT_GT(report.total_cells, 0u);

  // drain() resets: a second drain reports a clean slate.
  const BackendReport empty = wfa.drain();
  EXPECT_EQ(empty.submissions, 0u);
  EXPECT_EQ(empty.total_pairs, 0u);
  EXPECT_EQ(empty.measured_seconds, 0.0);
}

/// CpuBackend whose kernel throws CheckError on one input, as a kernel that
/// fails on a pair would (a non-ACGT base no longer does: admission resolves
/// it kInvalidInput before the kernel runs).
class PoisonedCpuBackend final : public CpuBackend {
 public:
  using CpuBackend::CpuBackend;

 protected:
  PairOutput align_one(const PairInput& pair) const override {
    PIMNW_CHECK_MSG(pair.a != "poison", "poisoned pair");
    return CpuBackend::align_one(pair);
  }
};

// A pair that throws fails its own ticket only, on the shape the table
// benches run the CPU baseline in: CpuBackend on a one-worker pool whose
// waiting caller helps it, so the caller may run the throwing pair itself
// while it waits for the other ticket.
TEST(BackendTicketsTest, PairErrorSurfacesAtItsOwnTicket) {
  const TestPairs t = make_pairs(8, 120, 0.05, 12);
  std::vector<PairInput> poisoned(t.pairs.begin(), t.pairs.begin() + 4);
  poisoned.insert(poisoned.begin() + 2, PairInput{"poison", "ACGT"});
  const std::span<const PairInput> clean(t.pairs.data() + 4, 4);

  ThreadPool workers(1);
  const CpuBackend::Config config;
  {
    PoisonedCpuBackend cpu(config, &workers);
    const AlignerBackend::Ticket a = cpu.submit(poisoned);
    const AlignerBackend::Ticket b = cpu.submit(clean);
    const std::vector<PairOutput> out = cpu.wait(b);
    EXPECT_THROW((void)cpu.wait(a), CheckError);
    // Both tickets are settled, so an assertion below cannot leave one
    // pending for the destructor's check.
    ASSERT_EQ(out.size(), clean.size());
    for (std::size_t p = 0; p < clean.size(); ++p) {
      const align::AlignResult ref = baseline::ksw2_align(
          clean[p].a, clean[p].b, config.scoring, config.options);
      ASSERT_TRUE(ref.reached_end) << "pair " << p;
      EXPECT_TRUE(out[p].ok) << "pair " << p;
      EXPECT_EQ(out[p].score, ref.score) << "pair " << p;
      EXPECT_EQ(out[p].cells, ref.cells) << "pair " << p;
      EXPECT_EQ(out[p].cigar.to_string(), ref.cigar.to_string())
          << "pair " << p;
    }

    // drain() has nothing left to rethrow: it reports both tickets, then a
    // clean slate.
    std::uint64_t valid_cells = 0;
    for (const PairInput& pair : t.pairs) {
      valid_cells +=
          baseline::ksw2_align(pair.a, pair.b, config.scoring, config.options)
              .cells;
    }
    const BackendReport report = cpu.drain();
    EXPECT_EQ(report.submissions, 2u);
    EXPECT_EQ(report.total_pairs, poisoned.size() + clean.size());
    EXPECT_EQ(report.aligned, t.pairs.size());
    EXPECT_EQ(report.total_cells, valid_cells);
    const BackendReport empty = cpu.drain();
    EXPECT_EQ(empty.submissions, 0u);
    EXPECT_EQ(empty.total_pairs, 0u);
  }  // ~PoolBackend checks that no ticket is left pending
}

// The CPU baseline's report is what the table benches read: every pair
// aligned on a multi-worker pool, its cells counted and its throughput
// measured.
TEST(CpuBatchTest, AlignsAllPairsOnMultipleThreads) {
  const TestPairs t = make_pairs(50, 150, 0.1, 4);
  const align::Scoring scoring;
  ThreadPool workers(2);
  CpuBackend cpu({.options = {.band_width = 64, .traceback = true}},
                 &workers);
  const std::vector<PairOutput> outputs = cpu.wait(cpu.submit(t.pairs));
  const BackendReport report = cpu.drain();
  ASSERT_EQ(outputs.size(), t.pairs.size());
  EXPECT_EQ(report.aligned, t.pairs.size());
  EXPECT_GT(report.total_cells, 0u);
  EXPECT_GT(report.cells_per_second, 0.0);
  for (std::size_t p = 0; p < outputs.size(); ++p) {
    align::AlignResult as_result;
    as_result.score = outputs[p].score;
    as_result.cigar = outputs[p].cigar;
    as_result.reached_end = outputs[p].ok;
    EXPECT_EQ(align::check_alignment(as_result, t.pairs[p].a, t.pairs[p].b,
                                     scoring),
              "")
        << "pair " << p;
  }
}

TEST(CpuBatchTest, EmptyBatch) {
  ThreadPool workers(1);
  CpuBackend cpu({}, &workers);
  EXPECT_TRUE(cpu.wait(cpu.submit({})).empty());
  const BackendReport report = cpu.drain();
  EXPECT_EQ(report.total_cells, 0u);
  EXPECT_EQ(report.cells_per_second, 0.0);
}

TEST(DispatchCalibrate, ScalesEstimatesByMeasuredThroughput) {
  const TestPairs t = make_pairs(8, 120, 0.05, 9);
  CpuBackend cpu({});
  WfaBackend wfa({});
  Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
  dispatcher.calibrate(t.pairs, 4);
  for (const AlignerBackend* b :
       {static_cast<const AlignerBackend*>(&cpu),
        static_cast<const AlignerBackend*>(&wfa)}) {
    EXPECT_GT(b->cost_scale(), 0.0);
    EXPECT_TRUE(std::isfinite(b->cost_scale()));
  }
  // Probe accounting must not leak into the next align's reports.
  std::vector<PairOutput> out;
  const DispatchReport report = dispatcher.align(t.pairs, &out);
  std::uint64_t reported = 0;
  for (const BackendReport& b : report.backends) reported += b.total_pairs;
  EXPECT_EQ(reported, t.pairs.size());
}

TEST(DispatchEmptyInput, ReportsZerosWithoutNans) {
  CpuBackend cpu({});
  WfaBackend wfa({});
  Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
  std::vector<PairOutput> out{PairOutput{}};  // stale content must be cleared
  const DispatchReport report = dispatcher.align({}, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(report.total_pairs, 0u);
  EXPECT_EQ(report.aligned, 0u);
  for (const BackendReport& b : report.backends) {
    EXPECT_EQ(b.total_pairs, 0u);
    EXPECT_FALSE(std::isnan(b.cells_per_second));
    EXPECT_EQ(b.cells_per_second, 0.0);
  }
}

}  // namespace
}  // namespace pimnw::core
