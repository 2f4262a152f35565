// pimnw_serve — run the streaming alignment service under a synthetic
// client load (ISSUE 7, DESIGN.md §14).
//
// Spins up an AlignService over the full backend set (PiM + CPU + WFA
// behind the dispatcher), then drives it from --clients threads submitting
// individual pairs with Poisson inter-arrival times at --rate requests/s
// per client (rate 0 = closed loop: each client submits its next pair the
// moment the previous future resolves). Prints the admission/latency
// metrics and writes them as JSON — the counters from
// AlignService::metrics(), the exact latency quantiles from the dispatched
// requests' own ServiceResults; with --trace-out the Perfetto trace
// shows the coalescer's queue-wait spans next to the dispatch spans, over
// the queue-depth and modeled-backlog counter tracks.
//
// --calibration-file persists Dispatcher::calibrate's per-backend cost
// scales: loaded when the file exists (service starts routing on measured
// throughput immediately), measured-and-saved when it does not — the
// warm-up probes run once per machine, not once per process.
//
// Examples:
//   pimnw_serve --pairs 2000 --clients 8                 # closed loop
//   pimnw_serve --rate 500 --deadline-ms 20 --policy cost # open loop
//   pimnw_serve --max-queue-pairs 256 --linger-ms 1      # strict latency
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/dispatch.hpp"
#include "core/service.hpp"
#include "data/synthetic.hpp"
#include "util/cli.hpp"
#include "util/flight_recorder.hpp"
#include "util/metrics.hpp"
#include "util/metrics_http.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

/// Exponential inter-arrival gap for a Poisson process at `rate` per
/// second.
double poisson_gap_seconds(pimnw::Xoshiro256& rng, double rate) {
  double u = rng.uniform();
  if (u <= 0.0) u = 1e-12;
  return -std::log(u) / rate;
}

void write_latency_json(std::ostream& out, const char* key,
                        const pimnw::core::LatencyStats& stats) {
  out << "  \"" << key << "\": { \"count\": " << stats.count
      << ", \"mean\": " << stats.mean_ms << ", \"p50\": " << stats.p50_ms
      << ", \"p90\": " << stats.p90_ms << ", \"p99\": " << stats.p99_ms
      << ", \"max\": " << stats.max_ms << " }";
}

void write_service_json(std::ostream& out,
                        const pimnw::core::ServiceMetrics& metrics,
                        const pimnw::core::RequestLatencies& latencies) {
  out << "{\n";
  out << "  \"submitted\": " << metrics.submitted << ",\n";
  out << "  \"completed\": " << metrics.completed << ",\n";
  out << "  \"rejected\": { \"queue_full\": " << metrics.rejected_queue_full
      << ", \"deadline\": " << metrics.rejected_deadline
      << ", \"shutdown\": " << metrics.rejected_shutdown << " },\n";
  out << "  \"flushes\": { \"full\": " << metrics.flushes_full
      << ", \"linger\": " << metrics.flushes_linger
      << ", \"drain\": " << metrics.flushes_drain << " },\n";
  out << "  \"batch_fill_mean\": " << metrics.batch_fill_mean << ",\n";
  out << "  \"max_queue_depth\": " << metrics.max_queue_depth << ",\n";
  out << "  \"max_backlog_seconds\": " << metrics.max_backlog_seconds << ",\n";
  out << "  \"busy_seconds\": " << metrics.busy_seconds << ",\n";
  out << "  \"modeled_seconds\": " << metrics.modeled_seconds << ",\n";
  write_latency_json(out, "queue_wait_ms", latencies.queue_wait);
  out << ",\n";
  write_latency_json(out, "total_latency_ms", latencies.total_latency);
  out << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimnw;
  Cli cli("pimnw_serve",
          "drive the streaming alignment service with synthetic clients");
  cli.flag("pairs", std::int64_t{1024}, "total requests across all clients");
  cli.flag("length", std::int64_t{500}, "read length");
  cli.flag("error-rate", 0.08, "per-base divergence of the synthetic pairs");
  cli.flag("clients", std::int64_t{4}, "client threads");
  cli.flag("rate", 0.0,
           "open-loop request rate per client (req/s; 0 = closed loop)");
  cli.flag("deadline-ms", 0.0, "per-request deadline (0 = none)");
  cli.flag("linger-ms", 2.0, "admission window: max linger of the oldest "
           "request before an under-full flush");
  cli.flag("max-batch", std::int64_t{0},
           "flush threshold in pairs (0 = rank-sized auto)");
  cli.flag("max-queue-pairs", std::int64_t{0},
           "backpressure cap on queued pairs (0 = none)");
  cli.flag("max-backlog-ms", 0.0,
           "backpressure cap on modeled backlog (0 = none)");
  cli.flag("block-when-full", false,
           "block submitters at the cap instead of rejecting");
  cli.flag("ranks", std::int64_t{2}, "modeled UPMEM ranks");
  cli.flag("threads", std::int64_t{0},
           "worker threads (0 = hardware concurrency)");
  cli.flag("policy", std::string("single"),
           "routing policy: single | threshold | cost");
  cli.flag("backend", std::string("pim"),
           "backend for --policy single: pim | cpu | wfa");
  cli.flag("calibration-file", std::string(""),
           "load cost scales from this JSON if present, else calibrate "
           "and save them to it");
  cli.flag("seed", std::int64_t{11}, "dataset + arrival seed");
  cli.flag("json-out", std::string("serve_metrics.json"),
           "service metrics output path");
  cli.flag("trace-out", std::string(""),
           "Chrome/Perfetto trace output path (empty = no trace)");
  cli.flag("metrics-port", std::int64_t{-1},
           "serve Prometheus /metrics + /healthz on 127.0.0.1:<port> "
           "(0 = ephemeral, printed at startup; -1 = off)");
  cli.flag("metrics-out", std::string(""),
           "write a final Prometheus text snapshot to this file (also the "
           "fallback when --metrics-port cannot bind)");
  cli.flag("storm-dump", std::string(""),
           "flight-recorder black box path for deadline storms");
  cli.flag("storm-threshold", std::int64_t{32},
           "deadline expiries in one sweep that trigger --storm-dump");
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

  data::SyntheticConfig data_config;
  data_config.pair_count = static_cast<std::size_t>(cli.get_int("pairs"));
  data_config.read_length = static_cast<std::size_t>(cli.get_int("length"));
  data_config.errors.error_rate = cli.get_double("error-rate");
  data_config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<core::PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  core::PimBackend::Config pim_config;
  pim_config.aligner.nr_ranks = static_cast<int>(cli.get_int("ranks"));
  pim_config.aligner.workers = &workers;
  core::PimBackend pim(pim_config);
  core::CpuBackend cpu(core::CpuBackend::Config{}, &workers);
  core::WfaBackend wfa(core::WfaBackend::Config{}, &workers);

  core::DispatchConfig dispatch_config;
  dispatch_config.policy = *policy;
  dispatch_config.single = *backend_kind;
  core::Dispatcher dispatcher(dispatch_config, {&pim, &cpu, &wfa});

  const std::string calibration_file = cli.get_string("calibration-file");
  if (!calibration_file.empty()) {
    if (dispatcher.load_calibration_file(calibration_file)) {
      std::printf("loaded calibration from %s\n", calibration_file.c_str());
    } else {
      dispatcher.calibrate(pairs);
      dispatcher.save_calibration_file(calibration_file);
      std::printf("calibrated and saved %s\n", calibration_file.c_str());
    }
  }

  core::ServiceConfig service_config;
  service_config.max_batch_pairs =
      static_cast<std::size_t>(cli.get_int("max-batch"));
  service_config.max_linger_seconds = cli.get_double("linger-ms") * 1e-3;
  service_config.max_queue_pairs =
      static_cast<std::size_t>(cli.get_int("max-queue-pairs"));
  service_config.max_backlog_seconds = cli.get_double("max-backlog-ms") * 1e-3;
  service_config.block_when_full = cli.get_bool("block-when-full");
  if (!cli.get_string("storm-dump").empty()) {
    service_config.storm_dump_path = cli.get_string("storm-dump");
    service_config.storm_dump_threshold =
        static_cast<std::size_t>(cli.get_int("storm-threshold"));
  }

  // Live scrape endpoint. Port 0 binds an ephemeral port, printed (and
  // flushed) before the load starts so a harness can parse it. When the
  // bind fails, --metrics-out still gets a file snapshot at the end.
  metrics::MetricsHttpServer metrics_server;
  const std::int64_t metrics_port = cli.get_int("metrics-port");
  if (metrics_port >= 0) {
    if (metrics_server.start(static_cast<int>(metrics_port))) {
      std::printf("metrics listening on port %d\n", metrics_server.port());
      std::fflush(stdout);
    }
  }

  const bool tracing = !cli.get_string("trace-out").empty();
  if (tracing) {
    trace::set_enabled(true);
    trace::set_thread_name("main");
  }

  core::AlignService service(&dispatcher, service_config);
  const double rate = cli.get_double("rate");
  const double deadline = cli.get_double("deadline-ms") * 1e-3;
  const auto clients = static_cast<std::size_t>(cli.get_int("clients"));

  // Each request's ServiceResult, in pair order (client c owns the slots
  // p ≡ c mod clients, so the writes are disjoint).
  std::vector<core::ServiceResult> results(pairs.size());
  Stopwatch wall;
  std::vector<std::thread> client_threads;
  for (std::size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      Xoshiro256 rng(static_cast<std::uint64_t>(cli.get_int("seed")) * 977 +
                     c);
      std::vector<std::pair<std::size_t, std::future<core::ServiceResult>>>
          inflight;
      for (std::size_t p = c; p < pairs.size(); p += clients) {
        if (rate > 0) {
          const double gap = poisson_gap_seconds(rng, rate);
          std::this_thread::sleep_for(std::chrono::duration<double>(gap));
          inflight.emplace_back(p, service.submit(pairs[p], deadline));
        } else {
          // Closed loop: at most one outstanding request per client.
          results[p] = service.submit(pairs[p], deadline).get();
        }
      }
      for (auto& [p, f] : inflight) results[p] = f.get();
    });
  }
  for (std::thread& t : client_threads) t.join();
  service.stop();
  const double wall_seconds = wall.seconds();
  if (tracing) trace::set_enabled(false);

  const core::ServiceMetrics metrics = service.metrics();
  const core::RequestLatencies latencies = core::summarize_dispatched(results);
  std::printf(
      "%zu requests, %zu clients, %s: completed %llu, rejected %llu "
      "(queue) / %llu (deadline), %llu full + %llu linger + %llu drain "
      "flushes, fill %.2f\n",
      pairs.size(), clients, rate > 0 ? "open loop" : "closed loop",
      static_cast<unsigned long long>(metrics.completed),
      static_cast<unsigned long long>(metrics.rejected_queue_full),
      static_cast<unsigned long long>(metrics.rejected_deadline),
      static_cast<unsigned long long>(metrics.flushes_full),
      static_cast<unsigned long long>(metrics.flushes_linger),
      static_cast<unsigned long long>(metrics.flushes_drain),
      metrics.batch_fill_mean);
  std::printf(
      "throughput %.0f pairs/s (wall %.3f s, busy %.3f s), latency p50 "
      "%.2f ms / p90 %.2f ms / p99 %.2f ms (queue p50 %.2f ms)\n",
      wall_seconds > 0 ? static_cast<double>(metrics.completed) / wall_seconds
                       : 0.0,
      wall_seconds, metrics.busy_seconds, latencies.total_latency.p50_ms,
      latencies.total_latency.p90_ms, latencies.total_latency.p99_ms,
      latencies.queue_wait.p50_ms);

  const std::string json_path = cli.get_string("json-out");
  std::ofstream json(json_path);
  if (json.good()) {
    write_service_json(json, metrics, latencies);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (tracing && trace::write_json_file(cli.get_string("trace-out"))) {
    std::printf("wrote %s — open it in https://ui.perfetto.dev\n",
                cli.get_string("trace-out").c_str());
  }
  const std::string metrics_out = cli.get_string("metrics-out");
  if (!metrics_out.empty() &&
      metrics::MetricsRegistry::global().write_file(metrics_out)) {
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  metrics_server.stop();
  return 0;
}
