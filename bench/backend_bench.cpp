// backend_bench — heterogeneous dispatch on a mixed workload (ISSUE 4;
// four backends since the PimKernel refactor, DESIGN.md §16).
//
// The workload mixes the two length regimes the backends are asymmetrically
// good at — many short pairs, where WFA's cost-proportional work s·(m+n)
// with s ∝ error·(m+n) is far below the banded DP bill of (m+n)·w cells,
// and a tail of long pairs past the crossover, where the quadratic
// wavefront cost dwarfs banded DP — and two divergence classes (the short
// reads are near-identical, the long reads noisier), so both per-pair
// signals the cost models see (length, divergence prior) point somewhere.
// Every single-backend policy is therefore slow on one part of the
// workload, while cost-model routing — per-pair argmin of estimates
// calibrated against measured probe throughput — sends each class where it
// is cheap. The headline assertion of BENCH_backend.json is
// cost_beats_all_singles.
//
// The bench is score-only, the capability every backend shares.
//
// All numbers are host wall-clock of Dispatcher::align (best of --reps);
// the PiM backend's wall-clock is the simulator's, so this bench compares
// orchestration strategies, not the paper's modeled hardware speedups.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/dispatch.hpp"
#include "core/pim_kernel.hpp"
#include "data/mutate.hpp"
#include "data/synthetic.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/provenance.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pimnw;

struct Workload {
  // Owning storage; pairs view into it.
  data::PairDataset short_reads;
  data::PairDataset long_reads;
  std::vector<core::PairInput> pairs;
  std::vector<core::PairInput> probe;  // calibration sample, both classes
  /// Workload-mean per-base divergence, the WFA backends' estimate prior.
  double mean_divergence = 0.05;
};

Workload build_workload(std::size_t short_pairs, std::size_t short_len,
                        double short_error, std::size_t long_pairs,
                        std::size_t long_len, double long_error,
                        std::uint64_t seed) {
  Workload w;
  data::SyntheticConfig short_config;
  short_config.read_length = short_len;
  short_config.pair_count = short_pairs;
  short_config.errors.error_rate = short_error;
  short_config.seed = seed;
  w.short_reads = data::generate_synthetic(short_config);

  data::SyntheticConfig long_config;
  long_config.read_length = long_len;
  long_config.pair_count = long_pairs;
  long_config.errors.error_rate = long_error;
  long_config.seed = seed + 1;
  w.long_reads = data::generate_synthetic(long_config);

  const std::size_t total = short_pairs + long_pairs;
  w.mean_divergence =
      total > 0 ? (short_error * static_cast<double>(short_pairs) +
                   long_error * static_cast<double>(long_pairs)) /
                      static_cast<double>(total)
                : 0.05;
  // Interleave so threshold/cost routing is exercised throughout the span,
  // not in two contiguous blocks.
  const std::size_t n =
      std::max(w.short_reads.pairs.size(), w.long_reads.pairs.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i < w.short_reads.pairs.size()) {
      const auto& [a, b] = w.short_reads.pairs[i];
      w.pairs.push_back({a, b});
    }
    if (i < w.long_reads.pairs.size()) {
      const auto& [a, b] = w.long_reads.pairs[i];
      w.pairs.push_back({a, b});
    }
  }
  // Calibration probe: both classes, so each backend's cost_scale reflects
  // the workload mix rather than whichever class happens to come first.
  for (std::size_t i = 0; i < 2 && i < w.short_reads.pairs.size(); ++i) {
    const auto& [a, b] = w.short_reads.pairs[i];
    w.probe.push_back({a, b});
  }
  for (std::size_t i = 0; i < 2 && i < w.long_reads.pairs.size(); ++i) {
    const auto& [a, b] = w.long_reads.pairs[i];
    w.probe.push_back({a, b});
  }
  return w;
}

struct RunRow {
  std::string name;
  core::DispatchReport report;
};

/// Best-of-`reps` dispatch of the workload under `config`. Fresh backends
/// per rep so accounting and calibration never leak between runs. When
/// `calibration_file` is non-empty, calibrating runs load the scales from
/// it instead of probing (probing and saving when it does not exist yet —
/// so rep 0 measures, later reps and later invocations reuse).
RunRow run_policy(const std::string& name, const Workload& w,
                  const core::DispatchConfig& config, ThreadPool& workers,
                  int reps, bool calibrate,
                  const std::string& calibration_file = std::string()) {
  RunRow row;
  row.name = name;
  row.report.wall_seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    // Score-only across the board.
    core::PimAlignerConfig pim_config;
    pim_config.align.traceback = false;
    core::PimBackend pim({pim_config});

    core::CpuBackend::Config cpu_config;
    cpu_config.options.traceback = false;
    core::CpuBackend cpu(cpu_config, &workers);

    core::WfaBackend::Config wfa_config;
    wfa_config.traceback = false;
    wfa_config.expected_divergence = w.mean_divergence;
    core::WfaBackend wfa(wfa_config, &workers);

    // The PiM-WFA kernel, uncapped: score-only wavefronts recycle a
    // depth-sized slot ring, so the MRAM footprint stays small even with
    // the cost bound lifted, and every pair aligns exactly.
    core::PimBackend::Config pimwfa_config;
    pimwfa_config.aligner.kernel = &core::wfa_kernel();
    pimwfa_config.aligner.align.traceback = false;
    pimwfa_config.aligner.align.wfa_max_cost = 0;
    pimwfa_config.expected_divergence = w.mean_divergence;
    core::PimBackend pimwfa(pimwfa_config);

    core::Dispatcher dispatcher(config, {&pim, &cpu, &wfa, &pimwfa});
    if (calibrate) {
      if (calibration_file.empty()) {
        dispatcher.calibrate(w.probe, w.probe.size());
      } else if (!dispatcher.load_calibration_file(calibration_file)) {
        dispatcher.calibrate(w.probe, w.probe.size());
        dispatcher.save_calibration_file(calibration_file);
      }
    }
    std::vector<core::PairOutput> out;
    core::DispatchReport report = dispatcher.align(w.pairs, &out);
    if (report.wall_seconds < row.report.wall_seconds) {
      row.report = std::move(report);
    }
  }
  std::printf("%-16s %8.3fs  routed", row.name.c_str(),
              row.report.wall_seconds);
  for (int k = 0; k < core::kBackendKinds; ++k) {
    std::printf("%s %s %4llu", k > 0 ? " /" : "",
                core::backend_kind_name(static_cast<core::BackendKind>(k)),
                static_cast<unsigned long long>(row.report.routed[k]));
  }
  std::printf("  aligned %llu/%llu\n",
              static_cast<unsigned long long>(row.report.aligned),
              static_cast<unsigned long long>(row.report.total_pairs));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("backend_bench",
          "mixed-workload, score-only comparison of dispatch policies "
          "across the PiM-NW, CPU-KSW2, host-WFA and PiM-WFA backends");
  cli.flag("short-pairs", std::int64_t{1200}, "short pairs (WFA regime)");
  cli.flag("short-length", std::int64_t{150}, "short read length");
  cli.flag("short-error", 0.02,
           "per-base divergence of the short class (wavefront regime)");
  cli.flag("long-pairs", std::int64_t{24}, "long pairs (banded-DP regime)");
  cli.flag("long-length", std::int64_t{3000}, "long read length");
  cli.flag("long-error", 0.05,
           "per-base divergence of the long class (banded regime)");
  cli.flag("threads", std::int64_t{0},
           "worker threads (0 = hardware concurrency)");
  cli.flag("reps", std::int64_t{3}, "repetitions (best-of)");
  cli.flag("seed", std::int64_t{11}, "dataset seed");
  cli.flag("out", std::string("BENCH_backend.json"), "output JSON path");
  cli.flag("calibration-file", std::string(""),
           "persist cost-model calibration: load scales from this JSON if "
           "present, else probe once and save them to it");
  cli.flag("log-level", std::string("info"),
           "stderr log level: debug | info | warn | error");
  cli.parse(argc, argv);

  if (!set_log_level_by_name(cli.get_string("log-level"))) {
    std::fprintf(stderr, "unknown --log-level %s\n",
                 cli.get_string("log-level").c_str());
    return 1;
  }

  auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (threads == 0) {
    threads = default_worker_threads();  // hw threads clamped to cgroup quota
  }
  ThreadPool workers(threads);
  const int reps = static_cast<int>(cli.get_int("reps"));

  const Workload w = build_workload(
      static_cast<std::size_t>(cli.get_int("short-pairs")),
      static_cast<std::size_t>(cli.get_int("short-length")),
      cli.get_double("short-error"),
      static_cast<std::size_t>(cli.get_int("long-pairs")),
      static_cast<std::size_t>(cli.get_int("long-length")),
      cli.get_double("long-error"),
      static_cast<std::uint64_t>(cli.get_int("seed")));
  std::printf("mixed workload: %zu pairs (%zu short x %lld bp @ %.1f%% + "
              "%zu long x %lld bp @ %.1f%%), score-only, %zu workers\n",
              w.pairs.size(), w.short_reads.pairs.size(),
              static_cast<long long>(cli.get_int("short-length")),
              cli.get_double("short-error") * 100.0,
              w.long_reads.pairs.size(),
              static_cast<long long>(cli.get_int("long-length")),
              cli.get_double("long-error") * 100.0, threads);

  std::vector<RunRow> rows;
  for (const core::BackendKind kind :
       {core::BackendKind::kPim, core::BackendKind::kCpu,
        core::BackendKind::kWfa, core::BackendKind::kPimWfa}) {
    core::DispatchConfig config;
    config.policy = core::RoutePolicy::kSingle;
    config.single = kind;
    rows.push_back(run_policy(
        std::string("single_") + core::backend_kind_name(kind), w, config,
        workers, reps, /*calibrate=*/false));
  }
  {
    // A hand-tuned threshold split for reference: what the cost model should
    // rediscover without being told the workload's length boundary.
    core::DispatchConfig config;
    config.policy = core::RoutePolicy::kLengthThreshold;
    config.length_threshold = 1000;
    config.short_backend = core::BackendKind::kWfa;
    config.long_backend = core::BackendKind::kCpu;
    rows.push_back(run_policy("threshold", w, config, workers, reps,
                              /*calibrate=*/false));
  }
  {
    core::DispatchConfig config;
    config.policy = core::RoutePolicy::kCostModel;
    rows.push_back(run_policy("cost", w, config, workers, reps,
                              /*calibrate=*/true,
                              cli.get_string("calibration-file")));
  }

  const double cost_seconds = rows.back().report.wall_seconds;
  bool beats_all_singles = true;
  for (const RunRow& row : rows) {
    if (row.name.rfind("single_", 0) == 0 &&
        cost_seconds >= row.report.wall_seconds) {
      beats_all_singles = false;
    }
  }
  std::printf("cost-model routing %s every single-backend run\n",
              beats_all_singles ? "beats" : "does NOT beat");

  // JSON layout note: everything bench_diff gates on is deterministic
  // (pair counts, aligned/oversized totals, routing of the fixed policies).
  // Wall-clock timings and the cost policy's routing — which follows the
  // measured calibration, so it can legitimately differ between machines
  // and even between runs — live under per-run "machine" blocks that
  // bench_diff skips. The cost_beats_all_singles headline is enforced by
  // this process's exit status on every --bench regeneration instead.
  const std::string path = cli.get_string("out");
  std::ofstream out(path);
  out << "{\n";
  out << "  \"provenance\": " << provenance_json("", machine_json(threads))
      << ",\n";
  out << "  \"short_pairs\": " << w.short_reads.pairs.size() << ",\n";
  out << "  \"short_error\": " << cli.get_double("short-error") << ",\n";
  out << "  \"long_pairs\": " << w.long_reads.pairs.size() << ",\n";
  out << "  \"long_error\": " << cli.get_double("long-error") << ",\n";
  out << "  \"cost_beats_all_singles\": "
      << (beats_all_singles ? "true" : "false") << ",\n";
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& row = rows[i];
    out << "    { \"name\": \"" << row.name << "\",\n";
    out << "      \"aligned\": " << row.report.aligned
        << ", \"total_pairs\": " << row.report.total_pairs << ",\n";
    if (row.name != "cost") {
      // Single-backend and threshold routing is a deterministic function of
      // the workload — gate it. The cost run's split is calibrated.
      out << "      \"routed\": [";
      for (int k = 0; k < core::kBackendKinds; ++k) {
        out << (k > 0 ? ", " : "") << row.report.routed[k];
      }
      out << "],\n";
    }
    out << "      \"machine\":\n";
    core::write_dispatch_json(out, row.report);
    out << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  std::printf("wrote %s\n", path.c_str());
  return beats_all_singles ? 0 : 1;
}
