// pimnw_trace — capture an execution trace + run statistics of the pipelined
// engine on a synthetic workload (ISSUE 3, DESIGN.md "Observability").
//
// Runs the workload through the backend/dispatch layer (ISSUE 4) with tracing
// enabled and a StatsCollector attached to the PiM backend, then writes:
//   * a Chrome/Perfetto trace JSON with two track groups — the wall-clock
//     host pipeline (build / exec / steal / commit lanes per worker, plus the
//     dispatch submit/wait spans and the host backends' per-pair spans) and
//     the modeled PiM timeline (per-rank transfer/launch lanes plus a lane
//     per DPU, placed at modeled time from the cycle cost model at 350 MHz);
//   * a per-run stats report JSON (pairs/s, GCUPS, per-DPU cycle
//     distribution, imbalance and steal counters).
//
// --backend {pim,cpu,wfa} picks where the pairs go under the default
// --policy single; --policy {threshold,cost} routes across all three
// backends at once (the heterogeneous overlap shows up in the trace as CPU
// and WFA pair spans running underneath the PiM commit lanes).
//
// Open the trace at https://ui.perfetto.dev ("Open trace file"), or in
// chrome://tracing. Instrumentation never changes modeled results —
// engine_test pins bit-identity with tracing on vs off.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/dispatch.hpp"
#include "core/host.hpp"
#include "core/stats.hpp"
#include "data/synthetic.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

int main(int argc, char** argv) {
  using namespace pimnw;
  Cli cli("pimnw_trace",
          "record a Perfetto trace + stats report of one dispatched run");
  cli.flag("pairs", std::int64_t{256}, "number of synthetic read pairs");
  cli.flag("length", std::int64_t{1000}, "read length (S=1000 by default)");
  cli.flag("ranks", std::int64_t{2}, "modeled UPMEM ranks");
  cli.flag("threads", std::int64_t{0},
           "worker threads (0 = hardware concurrency)");
  cli.flag("seed", std::int64_t{7}, "dataset seed");
  cli.flag("backend", std::string("pim"),
           "backend for --policy single: pim | cpu | wfa");
  cli.flag("policy", std::string("single"),
           "routing policy: single | threshold | cost");
  cli.flag("trace-out", std::string("trace.json"),
           "Chrome/Perfetto trace output path");
  cli.flag("stats-out", std::string("stats.json"),
           "per-run stats report output path");
  cli.parse(argc, argv);

  auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (threads == 0) {
    threads = default_worker_threads();  // hw threads clamped to cgroup quota
  }
  ThreadPool workers(threads);

  // A kind the dispatcher below does not register aborts at routing time.
  constexpr core::BackendKind kRegistered[] = {core::BackendKind::kPim,
                                               core::BackendKind::kCpu,
                                               core::BackendKind::kWfa};
  const std::string backend_name = cli.get_string("backend");
  const auto backend_kind = core::parse_backend_kind(backend_name);
  if (!backend_kind || std::ranges::find(kRegistered, *backend_kind) ==
                           std::ranges::end(kRegistered)) {
    std::fprintf(stderr, "unknown --backend %s (pim | cpu | wfa)\n",
                 backend_name.c_str());
    return 1;
  }
  const std::string policy_name = cli.get_string("policy");
  const auto policy = core::parse_route_policy(policy_name);
  if (!policy) {
    std::fprintf(stderr, "unknown --policy %s\n", policy_name.c_str());
    return 1;
  }

  data::SyntheticConfig data_config = data::s1000_config(
      static_cast<std::size_t>(cli.get_int("pairs")),
      static_cast<std::uint64_t>(cli.get_int("seed")));
  data_config.read_length = static_cast<std::size_t>(cli.get_int("length"));
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<core::PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  core::StatsCollector stats;
  core::PimBackend::Config pim_config;
  pim_config.aligner.nr_ranks = static_cast<int>(cli.get_int("ranks"));
  pim_config.aligner.workers = &workers;
  pim_config.aligner.stats = &stats;
  core::PimBackend pim(pim_config);
  core::CpuBackend cpu(core::CpuBackend::Config{}, &workers);
  core::WfaBackend wfa(core::WfaBackend::Config{}, &workers);

  core::DispatchConfig dispatch_config;
  dispatch_config.policy = *policy;
  dispatch_config.single = *backend_kind;
  core::Dispatcher dispatcher(dispatch_config, {&pim, &cpu, &wfa});

  trace::set_enabled(true);
  trace::set_thread_name("main");
  std::vector<core::PairOutput> out;
  const core::DispatchReport report = dispatcher.align(pairs, &out);
  trace::set_enabled(false);

  const core::BackendReport* pim_report = nullptr;
  for (const core::BackendReport& b : report.backends) {
    if (b.kind == core::BackendKind::kPim) pim_report = &b;
  }
  std::printf(
      "%zu pairs x %zu bp, policy %s (pim %llu / cpu %llu / wfa %llu), "
      "%zu workers: wall %.3f ms, modeled PiM %.3f ms, %llu launches\n",
      pairs.size(), data_config.read_length,
      core::route_policy_name(report.policy),
      static_cast<unsigned long long>(report.routed[0]),
      static_cast<unsigned long long>(report.routed[1]),
      static_cast<unsigned long long>(report.routed[2]), threads,
      report.wall_seconds * 1e3,
      (pim_report != nullptr ? pim_report->modeled_seconds : 0.0) * 1e3,
      static_cast<unsigned long long>(stats.launches().size()));

  const std::string trace_path = cli.get_string("trace-out");
  if (trace::write_json_file(trace_path)) {
    std::printf("wrote %s — open it in https://ui.perfetto.dev\n",
                trace_path.c_str());
  }
  const std::string stats_path = cli.get_string("stats-out");
  if (pim_report != nullptr &&
      stats.write_json_file(stats_path, pim_report->pim)) {
    std::printf("wrote %s\n", stats_path.c_str());
  }
  return 0;
}
