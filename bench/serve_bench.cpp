// serve_bench — latency-under-load benchmarks of the streaming alignment
// service (ISSUE 7, DESIGN.md §14).
//
// Four experiments over AlignService on the PiM backend:
//
//  1. Coalescing headline (gated): flood the service (every client submits
//     its whole slice asynchronously) once with the rank-sized admission
//     window and once with max_batch_pairs = 1 (every request dispatched
//     alone — the no-coalescing strawman a naive RPC server would run).
//     `coalesced_speedup` (acceptance: >= 5x) compares *modeled device
//     throughput* (pairs / ServiceMetrics.modeled_seconds): launches are
//     rank-granular on the PiM, so a batch=1 flush bills a whole
//     transfer+launch+readback for one pair while the coalesced window
//     spreads the same bill over kDpusPerRank x pools pairs. Host
//     wall-clock cannot show this on the simulator — it executes the DP
//     cells on the host, where per-pair compute is identical either way —
//     so the wall ratio is reported informationally as `host_wall_ratio`.
//     BENCH_serve.json gates `coalesced_pairs_per_second` (host wall),
//     `modeled_pairs_per_second` and `coalesced_speedup` through
//     bench_diff.py's higher-is-better rule.
//
//  2. Latency vs load (informational): open-loop Poisson arrivals at
//     fractions of the measured saturation throughput, p50/p90/p99 total
//     latency per point. Latency keys end in `_ms` and throughput keys in
//     `_per_sec` ON PURPOSE — they must not match bench_diff.py's gated
//     `seconds`/`per_second` substrings, open-loop latency under a timed
//     arrival process is too noisy to gate at 20%.
//
//  3. Overload + backpressure (informational + exit gate): flood arrivals
//     (infinite offered load — deterministic on any machine, unlike a
//     past-saturation Poisson rate that can undershoot capacity on a
//     loaded host) against a small max_queue_pairs cap. Without the cap
//     p99 grows with the run length (every request queues behind an
//     ever-longer backlog); with it, excess requests reject as kQueueFull
//     and the p99 of the *served* requests stays bounded. The exit code
//     requires rejections > 0 at this point.
//
//  4. Admission-window trade-off (informational): linger sweep at half
//     load — short linger buys latency at the cost of batch fill and
//     throughput, long linger the reverse.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/dispatch.hpp"
#include "core/service.hpp"
#include "data/synthetic.hpp"
#include "util/cli.hpp"
#include "util/provenance.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pimnw;

struct Workload {
  data::PairDataset dataset;
  std::vector<core::PairInput> pairs;
};

Workload build_workload(std::size_t count, std::size_t length,
                        double error_rate, std::uint64_t seed) {
  Workload w;
  data::SyntheticConfig config;
  config.pair_count = count;
  config.read_length = length;
  config.errors.error_rate = error_rate;
  config.seed = seed;
  w.dataset = data::generate_synthetic(config);
  for (const auto& [a, b] : w.dataset.pairs) w.pairs.push_back({a, b});
  return w;
}

/// Arrival process of one load point.
enum class Arrivals { kFlood, kPoisson, kBursty };

struct LoadResult {
  double wall_seconds = 0.0;
  core::ServiceMetrics metrics;
  /// Exact quantiles over the point's dispatched requests.
  core::RequestLatencies latency;
};

/// Drive `n_pairs` requests from `clients` threads through a fresh service
/// on `dispatcher`. kFlood submits everything immediately (saturation);
/// kPoisson spaces arrivals exponentially at `rate`/s aggregate; kBursty
/// offers the same average rate as back-to-back bursts of `burst` requests
/// separated by idle gaps.
LoadResult run_load(core::Dispatcher& dispatcher,
                    const core::ServiceConfig& config, const Workload& w,
                    std::size_t n_pairs, std::size_t clients,
                    Arrivals arrivals, double rate, std::size_t burst,
                    std::uint64_t seed) {
  core::AlignService service(&dispatcher, config);
  // Client c owns the result slots p ≡ c mod clients: disjoint writes.
  std::vector<core::ServiceResult> results(n_pairs);
  Stopwatch wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Xoshiro256 rng(seed * 6364136223846793005ull + c + 1);
      const double client_rate = rate / static_cast<double>(clients);
      std::vector<std::future<core::ServiceResult>> inflight;
      std::size_t since_burst = 0;
      for (std::size_t p = c; p < n_pairs; p += clients) {
        switch (arrivals) {
          case Arrivals::kFlood:
            break;
          case Arrivals::kPoisson: {
            double u = rng.uniform();
            if (u <= 0.0) u = 1e-12;
            std::this_thread::sleep_for(
                std::chrono::duration<double>(-std::log(u) / client_rate));
            break;
          }
          case Arrivals::kBursty:
            if (since_burst == burst) {
              since_burst = 0;
              std::this_thread::sleep_for(std::chrono::duration<double>(
                  static_cast<double>(burst) / client_rate));
            }
            ++since_burst;
            break;
        }
        inflight.push_back(
            service.submit(w.pairs[p % w.pairs.size()]));
      }
      std::size_t p = c;
      for (auto& f : inflight) {
        results[p] = f.get();
        p += clients;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.stop();
  LoadResult result;
  result.wall_seconds = wall.seconds();
  result.metrics = service.metrics();
  result.latency = core::summarize_dispatched(results);
  return result;
}

double achieved_per_sec(const LoadResult& r) {
  return r.wall_seconds > 0
             ? static_cast<double>(r.metrics.completed) / r.wall_seconds
             : 0.0;
}

void write_point_json(std::ofstream& out, const char* label,
                      double offered_fraction, double offered_per_sec,
                      const LoadResult& r) {
  const core::ServiceMetrics& m = r.metrics;
  out << "    { \"label\": \"" << label << "\""
      << ", \"offered_fraction\": " << offered_fraction
      << ", \"offered_per_sec\": " << offered_per_sec
      << ", \"completed\": " << m.completed
      << ", \"rejected_queue_full\": " << m.rejected_queue_full
      << ", \"achieved_pairs_per_sec\": " << achieved_per_sec(r)
      << ", \"batch_fill\": " << m.batch_fill_mean
      << ", \"queue_p50_ms\": " << r.latency.queue_wait.p50_ms
      << ", \"p50_ms\": " << r.latency.total_latency.p50_ms
      << ", \"p90_ms\": " << r.latency.total_latency.p90_ms
      << ", \"p99_ms\": " << r.latency.total_latency.p99_ms << " }";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("serve_bench",
          "latency-under-load benchmarks of the streaming alignment "
          "service: coalesced vs batch=1 throughput, open-loop latency "
          "curves, backpressure under overload, linger sweep");
  cli.flag("pairs", std::int64_t{1024}, "pairs of the saturation flood");
  cli.flag("batch1-pairs", std::int64_t{96},
           "pairs of the batch=1 reference flood (each is a full dispatch)");
  cli.flag("point-pairs", std::int64_t{256}, "requests per open-loop point");
  cli.flag("length", std::int64_t{300}, "read length");
  cli.flag("error-rate", 0.08, "per-base divergence");
  cli.flag("clients", std::int64_t{4}, "client threads");
  cli.flag("ranks", std::int64_t{2}, "modeled UPMEM ranks");
  cli.flag("threads", std::int64_t{0},
           "worker threads (0 = hardware concurrency)");
  cli.flag("linger-ms", 2.0, "admission window of the throughput runs");
  cli.flag("overload-queue-pairs", std::int64_t{64},
           "max_queue_pairs cap of the overload point");
  cli.flag("calibration-file", std::string(""),
           "load backend cost scales from this JSON if present, else "
           "calibrate and save them to it");
  cli.flag("seed", std::int64_t{17}, "dataset + arrival seed");
  cli.flag("out", std::string("BENCH_serve.json"), "output JSON path");
  cli.parse(argc, argv);

  auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (threads == 0) {
    threads = default_worker_threads();  // hw threads clamped to cgroup quota
  }
  ThreadPool workers(threads);
  const auto clients = static_cast<std::size_t>(cli.get_int("clients"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double linger = cli.get_double("linger-ms") * 1e-3;

  const Workload w = build_workload(
      static_cast<std::size_t>(cli.get_int("pairs")),
      static_cast<std::size_t>(cli.get_int("length")),
      cli.get_double("error-rate"), seed);

  core::PimBackend::Config pim_config;
  pim_config.aligner.nr_ranks = static_cast<int>(cli.get_int("ranks"));
  pim_config.aligner.workers = &workers;
  core::PimBackend pim(pim_config);
  core::Dispatcher dispatcher(
      {.policy = core::RoutePolicy::kSingle, .single = core::BackendKind::kPim},
      {&pim});
  const std::string calibration_file = cli.get_string("calibration-file");
  if (!calibration_file.empty() &&
      !dispatcher.load_calibration_file(calibration_file)) {
    dispatcher.calibrate(w.pairs);
    dispatcher.save_calibration_file(calibration_file);
  }

  std::printf("%zu pairs x %lld bp, %zu clients, %zu workers, %lld ranks\n",
              w.pairs.size(), static_cast<long long>(cli.get_int("length")),
              clients, threads, static_cast<long long>(cli.get_int("ranks")));

  // --- 1. Coalescing headline: flood, rank-sized window vs batch=1. ---
  core::ServiceConfig coalesced_config;
  coalesced_config.max_linger_seconds = linger;
  const LoadResult coalesced =
      run_load(dispatcher, coalesced_config, w, w.pairs.size(), clients,
               Arrivals::kFlood, 0.0, 0, seed);
  const double coalesced_tp = achieved_per_sec(coalesced);

  core::ServiceConfig batch1_config;
  batch1_config.max_batch_pairs = 1;
  batch1_config.max_linger_seconds = linger;
  const LoadResult batch1 = run_load(
      dispatcher, batch1_config, w,
      static_cast<std::size_t>(cli.get_int("batch1-pairs")), clients,
      Arrivals::kFlood, 0.0, 0, seed + 1);
  const double batch1_tp = achieved_per_sec(batch1);
  const double host_wall_ratio = batch1_tp > 0 ? coalesced_tp / batch1_tp : 0.0;
  const auto modeled_per_sec = [](const LoadResult& r) {
    return r.metrics.modeled_seconds > 0
               ? static_cast<double>(r.metrics.completed) /
                     r.metrics.modeled_seconds
               : 0.0;
  };
  const double coalesced_modeled_tp = modeled_per_sec(coalesced);
  const double batch1_modeled_tp = modeled_per_sec(batch1);
  const double speedup =
      batch1_modeled_tp > 0 ? coalesced_modeled_tp / batch1_modeled_tp : 0.0;
  std::printf(
      "saturation (host wall): coalesced %.0f pairs/s (fill %.2f), "
      "batch=1 %.0f pairs/s -> ratio %.2fx\n",
      coalesced_tp, coalesced.metrics.batch_fill_mean, batch1_tp,
      host_wall_ratio);
  std::printf(
      "saturation (modeled device): coalesced %.0f pairs/s, batch=1 %.0f "
      "pairs/s -> speedup %.1fx\n",
      coalesced_modeled_tp, batch1_modeled_tp, speedup);

  // --- 2./3. Open-loop latency vs load, overload with backpressure. ---
  const auto point_pairs =
      static_cast<std::size_t>(cli.get_int("point-pairs"));
  struct Point {
    const char* label;
    double fraction;
    Arrivals arrivals;
    std::size_t max_queue;
  };
  const std::vector<Point> points = {
      {"poisson", 0.25, Arrivals::kPoisson, 0},
      {"poisson", 0.50, Arrivals::kPoisson, 0},
      {"poisson", 0.90, Arrivals::kPoisson, 0},
      {"bursty", 0.50, Arrivals::kBursty, 0},
      // Flood, not a timed arrival process: infinite offered load engages
      // the cap by construction on any machine, where a 1.5x-saturation
      // Poisson point can undershoot capacity when sleeps overshoot on a
      // loaded host.
      {"overload", 0.0, Arrivals::kFlood,
       static_cast<std::size_t>(cli.get_int("overload-queue-pairs"))},
  };
  std::vector<LoadResult> curve;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& point = points[i];
    core::ServiceConfig config;
    config.max_linger_seconds = linger;
    config.max_queue_pairs = point.max_queue;
    const double rate = point.fraction * coalesced_tp;
    curve.push_back(run_load(dispatcher, config, w, point_pairs, clients,
                             point.arrivals, rate, /*burst=*/16,
                             seed + 10 + i));
    const LoadResult& r = curve.back();
    char load[64];
    if (point.arrivals == Arrivals::kFlood) {
      std::snprintf(load, sizeof(load), "flood, cap %zu pairs",
                    point.max_queue);
    } else {
      std::snprintf(load, sizeof(load), "%.2fx load (%6.0f req/s)",
                    point.fraction, rate);
    }
    std::printf(
        "  %-8s %s: p50 %6.2f ms  p90 %6.2f ms  p99 %6.2f ms  fill %.2f  "
        "rejected %llu\n",
        point.label, load, r.latency.total_latency.p50_ms,
        r.latency.total_latency.p90_ms, r.latency.total_latency.p99_ms,
        r.metrics.batch_fill_mean,
        static_cast<unsigned long long>(r.metrics.rejected_queue_full));
  }
  const LoadResult& overload = curve.back();
  const bool backpressure_engaged = overload.metrics.rejected_queue_full > 0;

  // --- 4. Admission-window trade-off: linger sweep at half load. ---
  const std::vector<double> lingers_ms = {0.5, 2.0, 8.0};
  std::vector<LoadResult> sweep;
  for (std::size_t i = 0; i < lingers_ms.size(); ++i) {
    core::ServiceConfig config;
    config.max_linger_seconds = lingers_ms[i] * 1e-3;
    sweep.push_back(run_load(dispatcher, config, w, point_pairs, clients,
                             Arrivals::kPoisson, 0.5 * coalesced_tp, 0,
                             seed + 50 + i));
    std::printf(
        "  linger %4.1f ms: p50 %6.2f ms  fill %.2f  %6.0f pairs/s\n",
        lingers_ms[i], sweep.back().latency.total_latency.p50_ms,
        sweep.back().metrics.batch_fill_mean, achieved_per_sec(sweep.back()));
  }

  const bool ok = speedup >= 5.0 && backpressure_engaged;
  std::printf("coalesced_speedup %.1fx (>= 5x %s), overload backpressure %s\n",
              speedup, speedup >= 5.0 ? "OK" : "FAIL",
              backpressure_engaged ? "engaged" : "NOT engaged");

  const std::string path = cli.get_string("out");
  std::ofstream out(path);
  out << "{\n";
  out << "  \"threads\": " << threads << ",\n";
  out << "  \"clients\": " << clients << ",\n";
  out << "  \"pairs\": " << w.pairs.size() << ",\n";
  out << "  \"provenance\": " << provenance_json("", machine_json(threads))
      << ",\n";
  out << "  \"coalesced_pairs_per_second\": " << coalesced_tp << ",\n";
  out << "  \"modeled_pairs_per_second\": " << coalesced_modeled_tp << ",\n";
  out << "  \"coalesced_speedup\": " << speedup << ",\n";
  out << "  \"host_wall_ratio\": " << host_wall_ratio << ",\n";
  out << "  \"batch1_host_per_sec\": " << batch1_tp << ",\n";
  out << "  \"batch1_modeled_per_sec\": " << batch1_modeled_tp << ",\n";
  out << "  \"coalesced_fill\": " << coalesced.metrics.batch_fill_mean
      << ",\n";
  out << "  \"backpressure_engaged\": "
      << (backpressure_engaged ? "true" : "false") << ",\n";
  out << "  \"open_loop\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    write_point_json(out, points[i].label, points[i].fraction,
                     points[i].fraction * coalesced_tp, curve[i]);
    out << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"linger_sweep\": [\n";
  for (std::size_t i = 0; i < lingers_ms.size(); ++i) {
    const LoadResult& r = sweep[i];
    out << "    { \"linger_ms\": " << lingers_ms[i]
        << ", \"batch_fill\": " << r.metrics.batch_fill_mean
        << ", \"p50_ms\": " << r.latency.total_latency.p50_ms
        << ", \"p99_ms\": " << r.latency.total_latency.p99_ms
        << ", \"achieved_pairs_per_sec\": " << achieved_per_sec(r)
        << " }" << (i + 1 < lingers_ms.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::printf("wrote %s\n", path.c_str());
  return ok ? 0 : 1;
}
