// Streaming alignment service (ISSUE 7, DESIGN.md §14): bit-identity with
// the direct batch path, exact quantile math, admission-window edge cases
// (deadline expiry, queue-full rejection and blocking, shutdown drain),
// per-pair oversized status through the service, and calibration
// persistence. Suite names carry "Service" so the tsan preset's filter
// includes them — submit() races the coalescer by design.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/dispatch.hpp"
#include "core/pim_kernel.hpp"
#include "core/service.hpp"
#include "data/synthetic.hpp"
#include "util/rng.hpp"

namespace pimnw::core {
namespace {

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

PimAlignerConfig small_pim_config() {
  PimAlignerConfig config;
  config.nr_ranks = 1;
  config.batch_pairs = 16;
  return config;
}

// The acceptance pin: request-at-a-time submission through the service —
// from several client threads, coalesced into whatever batches the window
// forms — must reproduce the direct align_pairs outputs bit for bit:
// scores, CIGARs, per-pair modeled cycles and DMA bytes.
TEST(ServiceBitIdentity, MatchesDirectAlignPairs) {
  const TestPairs t = make_pairs(48, 300, 0.08, 71);
  const PimAlignerConfig config = small_pim_config();

  std::vector<PairOutput> direct_out;
  (void)PimAligner(config).align_pairs(t.pairs, &direct_out);

  PimBackend pim({config});
  Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                         .single = BackendKind::kPim},
                        {&pim});
  ServiceConfig service_config;
  service_config.max_batch_pairs = 16;
  service_config.max_linger_seconds = 1e-3;
  AlignService service(&dispatcher, service_config);

  constexpr int kClients = 4;
  std::vector<std::future<ServiceResult>> futures(t.pairs.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t p = static_cast<std::size_t>(c); p < t.pairs.size();
           p += kClients) {
        futures[p] = service.submit(t.pairs[p]);
      }
    });
  }
  for (std::thread& c : clients) c.join();

  std::vector<ServiceResult> results;
  results.reserve(t.pairs.size());
  for (std::size_t p = 0; p < t.pairs.size(); ++p) {
    const ServiceResult& result = results.emplace_back(futures[p].get());
    EXPECT_EQ(result.output.ok, direct_out[p].ok) << "pair " << p;
    EXPECT_EQ(result.output.status, direct_out[p].status) << "pair " << p;
    EXPECT_EQ(result.output.score, direct_out[p].score) << "pair " << p;
    EXPECT_EQ(result.output.cigar.to_string(),
              direct_out[p].cigar.to_string())
        << "pair " << p;
    EXPECT_EQ(result.output.dpu_pool_cycles, direct_out[p].dpu_pool_cycles)
        << "pair " << p;
    EXPECT_EQ(result.output.dpu_dma_bytes, direct_out[p].dpu_dma_bytes)
        << "pair " << p;
    EXPECT_GT(result.batch_id, 0u);
    EXPECT_GE(result.total_seconds, result.queue_seconds);
  }
  service.stop();
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.submitted, t.pairs.size());
  EXPECT_EQ(m.completed, t.pairs.size());
  EXPECT_EQ(m.rejected_queue_full, 0u);
  EXPECT_EQ(summarize_dispatched(results).total_latency.count, t.pairs.size());
}

TEST(ServiceQuantiles, ExactNearestRank) {
  // Nearest-rank on n=10 of {1..10}: p50 = ceil(5)th = 5, p90 = 9,
  // p99 = ceil(9.9)th = 10.
  std::vector<double> sorted;
  for (int i = 1; i <= 10; ++i) sorted.push_back(i);
  EXPECT_DOUBLE_EQ(exact_quantile(sorted, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(exact_quantile(sorted, 0.90), 9.0);
  EXPECT_DOUBLE_EQ(exact_quantile(sorted, 0.99), 10.0);
  EXPECT_DOUBLE_EQ(exact_quantile(sorted, 1.00), 10.0);
  EXPECT_DOUBLE_EQ(exact_quantile({5.0}, 0.50), 5.0);
  EXPECT_DOUBLE_EQ(exact_quantile({}, 0.50), 0.0);
}

TEST(ServiceQuantiles, SummarizeConvertsToMs) {
  const std::vector<double> seconds = {0.004, 0.001, 0.002, 0.003};
  const LatencyStats stats = summarize_latencies(seconds);
  EXPECT_EQ(stats.count, 4u);
  EXPECT_DOUBLE_EQ(stats.mean_ms, 2.5);
  EXPECT_DOUBLE_EQ(stats.p50_ms, 2.0);  // ceil(0.5*4)=2nd of sorted
  EXPECT_DOUBLE_EQ(stats.p90_ms, 4.0);  // ceil(3.6)=4th
  EXPECT_DOUBLE_EQ(stats.p99_ms, 4.0);
  EXPECT_DOUBLE_EQ(stats.max_ms, 4.0);
  EXPECT_EQ(summarize_latencies({}).count, 0u);
}

/// A service over a tiny CPU backend (fast, deterministic admission).
struct CpuService {
  CpuBackend cpu;
  Dispatcher dispatcher;
  AlignService service;

  explicit CpuService(ServiceConfig config)
      : cpu(CpuBackend::Config{}),
        dispatcher({.policy = RoutePolicy::kSingle,
                    .single = BackendKind::kCpu},
                   {&cpu}),
        service(&dispatcher, config) {}
};

TEST(ServiceAdmission, FullFlushAtBatchSize) {
  ServiceConfig config;
  config.max_batch_pairs = 4;
  config.max_linger_seconds = 10.0;  // linger never fires
  CpuService s(config);
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(s.service.submit({"ACGT", "ACGT"}));
  for (auto& f : futures) {
    const ServiceResult result = f.get();
    EXPECT_TRUE(result.output.ok);
    EXPECT_EQ(result.batch_pairs, 4u);
  }
  s.service.stop();
  const ServiceMetrics m = s.service.metrics();
  EXPECT_EQ(m.completed, 8u);
  EXPECT_EQ(m.flushes_full, 2u);
  EXPECT_EQ(m.flushes_linger, 0u);
  EXPECT_DOUBLE_EQ(m.batch_fill_mean, 1.0);
}

// The automatic flush is rank-sized (kDpusPerRank x pools x 2) on the pools
// of whichever PiM kernel the dispatcher serves, and on the default pools
// (6, so 768 pairs) when no PiM backend is registered.
TEST(ServiceAdmission, AutoBatchIsRankSizedForEitherPimKernel) {
  for (const PimKernel* kernel : {&nw_kernel(), &wfa_kernel()}) {
    PimAlignerConfig aligner = small_pim_config();
    aligner.kernel = kernel;
    aligner.pool.pools = 3;
    PimBackend pim({aligner});
    Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                           .single = pim.kind()},
                          {&pim});
    AlignService service(&dispatcher);
    EXPECT_EQ(service.config().max_batch_pairs, 384u) << kernel->name();
  }
  CpuService cpu(ServiceConfig{});
  EXPECT_EQ(cpu.service.config().max_batch_pairs, 768u);
}

TEST(ServiceAdmission, LingerFlushUnderFull) {
  ServiceConfig config;
  config.max_batch_pairs = 1000;
  config.max_linger_seconds = 1e-3;
  CpuService s(config);
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(s.service.submit({"ACGT", "ACGT"}));
  for (auto& f : futures) EXPECT_TRUE(f.get().output.ok);
  s.service.stop();
  const ServiceMetrics m = s.service.metrics();
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.flushes_full, 0u);
  EXPECT_GE(m.flushes_linger, 1u);
}

TEST(ServiceAdmission, DeadlineExpiresBeforeDispatch) {
  ServiceConfig config;
  config.max_batch_pairs = 1000;
  config.max_linger_seconds = 60.0;  // only pushes wake the coalescer
  CpuService s(config);
  // Admit with an already-microscopic budget, let it expire, then push a
  // fresh request: the wake-up's deadline sweep expires the first.
  std::future<ServiceResult> doomed =
      s.service.submit({"ACGT", "ACGT"}, /*deadline_seconds=*/1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::future<ServiceResult> fresh = s.service.submit({"ACGT", "ACGT"});
  const ServiceResult dead = doomed.get();
  EXPECT_FALSE(dead.output.ok);
  EXPECT_EQ(dead.output.status, PairStatus::kDeadlineExceeded);
  EXPECT_EQ(dead.batch_id, 0u);
  s.service.stop();
  const ServiceResult live = fresh.get();
  EXPECT_TRUE(live.output.ok);
  const ServiceMetrics m = s.service.metrics();
  EXPECT_EQ(m.rejected_deadline, 1u);
  EXPECT_EQ(m.completed, 1u);
  // Only the dispatched request enters the exact quantiles.
  EXPECT_EQ(summarize_dispatched({dead, live}).total_latency.count, 1u);
}

TEST(ServiceAdmission, QueueFullRejects) {
  ServiceConfig config;
  config.max_batch_pairs = 1000;
  config.max_linger_seconds = 60.0;  // admitted requests stay queued
  config.max_queue_pairs = 2;
  CpuService s(config);
  std::future<ServiceResult> a = s.service.submit({"ACGT", "ACGT"});
  std::future<ServiceResult> b = s.service.submit({"ACGT", "ACGT"});
  std::future<ServiceResult> c = s.service.submit({"ACGT", "ACGT"});
  // The third resolves immediately, without dispatch.
  const ServiceResult rejected = c.get();
  EXPECT_FALSE(rejected.output.ok);
  EXPECT_EQ(rejected.output.status, PairStatus::kQueueFull);
  EXPECT_EQ(rejected.batch_id, 0u);
  s.service.stop();  // drains the two admitted requests
  EXPECT_TRUE(a.get().output.ok);
  EXPECT_TRUE(b.get().output.ok);
  const ServiceMetrics m = s.service.metrics();
  EXPECT_EQ(m.rejected_queue_full, 1u);
  EXPECT_EQ(m.completed, 2u);
  EXPECT_GE(m.flushes_drain, 1u);
  EXPECT_EQ(m.max_queue_depth, 2u);
}

TEST(ServiceAdmission, BlockWhenFullMakesProgress) {
  ServiceConfig config;
  config.max_batch_pairs = 1000;
  config.max_linger_seconds = 1e-3;
  config.max_queue_pairs = 1;
  config.block_when_full = true;
  CpuService s(config);
  // Each submit past the first must block until the linger flush frees the
  // slot; all ten complete (no deadlock, no rejection).
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(s.service.submit({"ACGT", "ACGT"}));
  for (auto& f : futures) EXPECT_TRUE(f.get().output.ok);
  const ServiceMetrics m = s.service.metrics();
  EXPECT_EQ(m.completed, 10u);
  EXPECT_EQ(m.rejected_queue_full, 0u);
  EXPECT_EQ(m.max_queue_depth, 1u);
}

TEST(ServiceAdmission, SubmitAfterStopIsShutdown) {
  ServiceConfig config;
  config.max_batch_pairs = 4;
  CpuService s(config);
  s.service.stop();
  const ServiceResult result = s.service.submit({"ACGT", "ACGT"}).get();
  EXPECT_FALSE(result.output.ok);
  EXPECT_EQ(result.output.status, PairStatus::kShutdown);
  EXPECT_EQ(s.service.metrics().rejected_shutdown, 1u);
}

TEST(ServiceAdmission, StopDrainsEverythingAdmitted) {
  ServiceConfig config;
  config.max_batch_pairs = 1000;
  config.max_linger_seconds = 60.0;
  CpuService s(config);
  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(s.service.submit({"ACGT", "ACGT"}));
  s.service.stop();
  for (auto& f : futures) EXPECT_TRUE(f.get().output.ok);
  const ServiceMetrics m = s.service.metrics();
  EXPECT_EQ(m.completed, 5u);
  EXPECT_GE(m.flushes_drain, 1u);
}

TEST(ServiceAdmission, BacklogCapUsesModeledCost) {
  // Each 400-base pair charges min_estimate_seconds into the backlog; a cap
  // below two charges admits exactly one queued pair at a time.
  CpuBackend cpu{CpuBackend::Config{}};
  const double one = cpu.estimate_seconds(400, 400);
  ASSERT_GT(one, 0.0);
  ServiceConfig config;
  config.max_batch_pairs = 1000;
  config.max_linger_seconds = 60.0;
  config.max_backlog_seconds = 1.5 * one;
  Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                         .single = BackendKind::kCpu},
                        {&cpu});
  AlignService service(&dispatcher, config);
  Xoshiro256 rng(7);
  const std::string a = data::random_dna(400, rng);
  const std::string b = data::random_dna(400, rng);
  std::future<ServiceResult> first = service.submit({a, b});
  std::future<ServiceResult> second = service.submit({a, b});
  const ServiceResult rejected = second.get();
  EXPECT_EQ(rejected.output.status, PairStatus::kQueueFull);
  service.stop();
  EXPECT_TRUE(first.get().output.ok);
  EXPECT_GT(service.metrics().max_backlog_seconds, 0.0);
}

TEST(ServiceOversized, StatusFlowsThroughService) {
  // An oversized pair (lone-pair MRAM footprint > 64 MB) must come back as
  // kOversized while its batch-mates align — through the full service →
  // dispatcher → PimBackend → align_pairs path.
  Xoshiro256 rng(41);
  const std::string big_a = data::random_dna(200'000, rng);
  const std::string big_b = data::random_dna(200'000, rng);
  const PimAlignerConfig config = small_pim_config();
  PimBackend pim({config});
  Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                         .single = BackendKind::kPim},
                        {&pim});
  ServiceConfig service_config;
  service_config.max_batch_pairs = 8;
  service_config.max_linger_seconds = 1e-3;
  AlignService service(&dispatcher, service_config);
  std::future<ServiceResult> good = service.submit({"ACGT", "ACGT"});
  std::future<ServiceResult> oversized = service.submit({big_a, big_b});
  const ServiceResult bad = oversized.get();
  EXPECT_FALSE(bad.output.ok);
  EXPECT_EQ(bad.output.status, PairStatus::kOversized);
  EXPECT_GT(bad.batch_id, 0u);  // dispatched, rejected inside the backend
  EXPECT_TRUE(good.get().output.ok);
  service.stop();
}

TEST(ServiceInvalidInput, StatusFlowsThroughService) {
  // A pair with an N must come back as kInvalidInput while its batch-mate
  // aligns, through the full service → dispatcher → PimBackend →
  // align_pairs path: the coalescer keeps serving.
  const PimAlignerConfig config = small_pim_config();
  PimBackend pim({config});
  Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                         .single = BackendKind::kPim},
                        {&pim});
  ServiceConfig service_config;
  service_config.max_batch_pairs = 8;
  service_config.max_linger_seconds = 1e-3;
  AlignService service(&dispatcher, service_config);
  std::future<ServiceResult> good = service.submit({"ACGT", "ACGT"});
  std::future<ServiceResult> invalid =
      service.submit({"ACGTNNGT", "ACGTACGA"});
  const ServiceResult bad = invalid.get();
  EXPECT_FALSE(bad.output.ok);
  EXPECT_EQ(bad.output.status, PairStatus::kInvalidInput);
  EXPECT_GT(bad.batch_id, 0u);  // dispatched, rejected inside the backend
  EXPECT_TRUE(good.get().output.ok);
  service.stop();
}

TEST(ServiceCalibration, SaveLoadRoundTrip) {
  CpuBackend cpu{CpuBackend::Config{}};
  WfaBackend wfa{WfaBackend::Config{}};
  Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
  cpu.set_cost_scale(1.75);
  wfa.set_cost_scale(0.25);
  std::stringstream saved;
  dispatcher.save_calibration(saved);
  cpu.set_cost_scale(1.0);
  wfa.set_cost_scale(1.0);
  EXPECT_TRUE(dispatcher.load_calibration(saved));
  EXPECT_DOUBLE_EQ(cpu.cost_scale(), 1.75);
  EXPECT_DOUBLE_EQ(wfa.cost_scale(), 0.25);
}

TEST(ServiceCalibration, RejectsPartialOrInvalidFiles) {
  CpuBackend cpu{CpuBackend::Config{}};
  WfaBackend wfa{WfaBackend::Config{}};
  Dispatcher dispatcher({.policy = RoutePolicy::kCostModel}, {&cpu, &wfa});
  cpu.set_cost_scale(2.0);
  wfa.set_cost_scale(3.0);
  // Missing the wfa entry: all-or-nothing, both scales stay put.
  std::stringstream partial(R"({ "cost_scale": { "cpu": 9.0 } })");
  EXPECT_FALSE(dispatcher.load_calibration(partial));
  EXPECT_DOUBLE_EQ(cpu.cost_scale(), 2.0);
  EXPECT_DOUBLE_EQ(wfa.cost_scale(), 3.0);
  // Non-positive scale: rejected.
  std::stringstream negative(
      R"({ "cost_scale": { "cpu": -1.0, "wfa": 2.0 } })");
  EXPECT_FALSE(dispatcher.load_calibration(negative));
  EXPECT_DOUBLE_EQ(cpu.cost_scale(), 2.0);
  // Missing file: false, no throw.
  EXPECT_FALSE(
      dispatcher.load_calibration_file("/nonexistent/calibration.json"));
}

TEST(ServiceCalibration, FileRoundTripViaTempDir) {
  CpuBackend cpu{CpuBackend::Config{}};
  Dispatcher dispatcher({.policy = RoutePolicy::kSingle,
                         .single = BackendKind::kCpu},
                        {&cpu});
  cpu.set_cost_scale(4.5);
  const std::string path =
      ::testing::TempDir() + "pimnw_service_calibration.json";
  dispatcher.save_calibration_file(path);
  cpu.set_cost_scale(1.0);
  EXPECT_TRUE(dispatcher.load_calibration_file(path));
  EXPECT_DOUBLE_EQ(cpu.cost_scale(), 4.5);
}

}  // namespace
}  // namespace pimnw::core
