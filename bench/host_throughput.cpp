// End-to-end host orchestration throughput: wall-clock pairs/s and GCUPS of
// the full batched host path (prep -> transfer -> kernel sim -> readback ->
// decode) on the S=1000 and S=10000 workloads, through the work-stealing
// execution engine directly and through the backend/dispatch layer. Writes
// BENCH_host.json so the perf trajectory tracks orchestration, not just the
// kernel inner loop (BENCH_kernel.json).
//
// The report also carries a "scaling" section — engine sim wall-clock at
// each --scaling thread count, each point bit-compared against the serial
// schedule (the engine on a 1-thread pool at batch_window 1) — and keeps
// every machine-dependent fact (worker threads, hardware concurrency, the
// whole scaling curve) inside provenance/machine/scaling blocks that
// scripts/bench_diff.py skips, so cross-machine diffs gate only on
// machine-independent shape. --identity-smoke runs just the threads 2-vs-1
// bit-identity gate and exits with the verdict; the default
// scripts/verify.sh run uses it as a cheap parallel-sweep check.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/backend.hpp"
#include "core/dispatch.hpp"
#include "core/host.hpp"
#include "core/pim_kernel.hpp"
#include "core/stats.hpp"
#include "data/synthetic.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/provenance.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace {

using namespace pimnw;

struct EngineTiming {
  double seconds = 0.0;
  double pairs_per_second = 0.0;
  double gcups = 0.0;
};

/// Best-of-N wall-clock of a full align_pairs run.
EngineTiming time_engine(const std::vector<core::PairInput>& pairs,
                         core::PimAlignerConfig config, ThreadPool& workers,
                         double banded_cells, int reps) {
  config.workers = &workers;
  EngineTiming timing;
  timing.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    core::PimAligner aligner(config);
    std::vector<core::PairOutput> out;
    const auto start = std::chrono::steady_clock::now();
    (void)aligner.align_pairs(pairs, &out);
    const auto stop = std::chrono::steady_clock::now();
    timing.seconds = std::min(
        timing.seconds, std::chrono::duration<double>(stop - start).count());
  }
  timing.pairs_per_second = static_cast<double>(pairs.size()) / timing.seconds;
  timing.gcups = banded_cells / timing.seconds / 1e9;
  return timing;
}

/// Best-of-N wall-clock of the same workload through the backend/dispatch
/// layer (ISSUE 4) under the bench's --backend/--policy selection.
EngineTiming time_dispatch(const std::vector<core::PairInput>& pairs,
                           core::PimAlignerConfig config,
                           core::BackendKind backend_kind,
                           core::RoutePolicy policy, ThreadPool& workers,
                           double banded_cells, int reps) {
  config.workers = &workers;
  EngineTiming timing;
  timing.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    core::PimBackend pim({config});
    core::CpuBackend cpu(core::CpuBackend::Config{}, &workers);
    core::WfaBackend wfa(core::WfaBackend::Config{}, &workers);
    core::DispatchConfig dispatch_config;
    dispatch_config.policy = policy;
    dispatch_config.single = backend_kind;
    core::Dispatcher dispatcher(dispatch_config, {&pim, &cpu, &wfa});
    if (policy == core::RoutePolicy::kCostModel) {
      dispatcher.calibrate(pairs);
    }
    std::vector<core::PairOutput> out;
    const core::DispatchReport report = dispatcher.align(pairs, &out);
    timing.seconds = std::min(timing.seconds, report.wall_seconds);
  }
  timing.pairs_per_second = static_cast<double>(pairs.size()) / timing.seconds;
  timing.gcups = banded_cells / timing.seconds / 1e9;
  return timing;
}

struct WorkloadResult {
  std::string name;
  std::size_t pairs = 0;
  std::size_t read_length = 0;
  std::size_t threads = 0;  // real ThreadPool size the section ran with
  EngineTiming pipelined;
  EngineTiming dispatch;
};

/// One full align_pairs run: outputs + modeled report + wall seconds.
struct RunResult {
  std::vector<core::PairOutput> out;
  core::RunReport report;
  double seconds = 0.0;
};

RunResult run_once(const std::vector<core::PairInput>& pairs,
                   core::PimAlignerConfig config, ThreadPool& workers) {
  config.workers = &workers;
  core::PimAligner aligner(config);
  RunResult r;
  const auto start = std::chrono::steady_clock::now();
  r.report = aligner.align_pairs(pairs, &r.out);
  const auto stop = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(stop - start).count();
  return r;
}

/// The serial reference schedule: one worker, one batch in flight.
RunResult run_serial(const std::vector<core::PairInput>& pairs,
                     core::PimAlignerConfig config) {
  ThreadPool one(1);
  config.batch_window = 1;
  return run_once(pairs, config, one);
}

/// Bit-exact equality of run results. The parallel sweep's contract
/// (DESIGN.md §15) is that any thread count replays the serial schedule's
/// arithmetic exactly, so == on doubles is the correct comparison.
bool same_outputs(const std::vector<core::PairOutput>& a,
                  const std::vector<core::PairOutput>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].score != b[i].score || a[i].ok != b[i].ok ||
        a[i].status != b[i].status ||
        a[i].cigar.items() != b[i].cigar.items() ||
        a[i].dpu_pool_cycles != b[i].dpu_pool_cycles ||
        a[i].dpu_dma_bytes != b[i].dpu_dma_bytes ||
        a[i].cells != b[i].cells) {
      return false;
    }
  }
  return true;
}

bool same_report(const core::RunReport& a, const core::RunReport& b) {
  return a.makespan_seconds == b.makespan_seconds &&
         a.transfer_seconds == b.transfer_seconds &&
         a.host_prep_seconds == b.host_prep_seconds &&
         a.host_overhead_fraction == b.host_overhead_fraction &&
         a.mean_pipeline_utilization == b.mean_pipeline_utilization &&
         a.mean_mram_overhead == b.mean_mram_overhead &&
         a.load_imbalance == b.load_imbalance && a.batches == b.batches &&
         a.total_pairs == b.total_pairs &&
         a.rejected_pairs == b.rejected_pairs &&
         a.bytes_to_dpus == b.bytes_to_dpus &&
         a.bytes_broadcast == b.bytes_broadcast &&
         a.bytes_from_dpus == b.bytes_from_dpus &&
         a.total_instructions == b.total_instructions &&
         a.total_dma_bytes == b.total_dma_bytes;
}

WorkloadResult run_workload(const std::string& name,
                            const data::SyntheticConfig& data_config,
                            std::size_t batch_pairs, ThreadPool& workers,
                            int reps, core::BackendKind backend_kind,
                            core::RoutePolicy policy) {
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<core::PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  core::PimAlignerConfig config;
  config.nr_ranks = 2;
  config.batch_pairs = batch_pairs;  // several in-flight batches per run

  double banded_cells = 0.0;
  for (const core::PairInput& p : pairs) {
    banded_cells += static_cast<double>(p.a.size() + p.b.size()) *
                    static_cast<double>(config.align.band_width);
  }

  WorkloadResult result;
  result.name = name;
  result.pairs = pairs.size();
  result.read_length = data_config.read_length;
  result.threads = workers.size();
  result.pipelined = time_engine(pairs, config, workers, banded_cells, reps);
  result.dispatch = time_dispatch(pairs, config, backend_kind, policy, workers,
                                  banded_cells, reps);
  std::printf("%-8s %5zu pairs x %5zu bp  pipelined %7.3fs  "
              "dispatch %7.3fs  (%.0f pairs/s, %.3f GCUPS)\n",
              name.c_str(), result.pairs, result.read_length,
              result.pipelined.seconds, result.dispatch.seconds,
              result.pipelined.pairs_per_second, result.pipelined.gcups);
  return result;
}

/// One instrumented pipelined run (outside the timed reps): records a
/// Chrome/Perfetto trace and a StatsCollector report. Tracing never changes
/// the modeled outputs (engine_test pins bit-identity), but it does add
/// wall-clock overhead, so the timed loop above runs untraced.
void run_traced(const data::SyntheticConfig& data_config,
                std::size_t batch_pairs, ThreadPool& workers,
                const std::string& trace_path, const std::string& stats_path) {
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<core::PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  core::PimAlignerConfig config;
  config.nr_ranks = 2;
  config.batch_pairs = batch_pairs;
  config.workers = &workers;
  core::StatsCollector stats;
  config.stats = &stats;

  trace::clear();
  trace::set_enabled(true);
  trace::set_thread_name("main");
  core::PimAligner aligner(config);
  std::vector<core::PairOutput> out;
  const core::RunReport report = aligner.align_pairs(pairs, &out);
  trace::set_enabled(false);

  if (!trace_path.empty() && trace::write_json_file(trace_path)) {
    std::printf("wrote %s (open in https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  if (!stats_path.empty() && stats.write_json_file(stats_path, report)) {
    std::printf("wrote %s\n", stats_path.c_str());
  }
}

void write_engine(std::ofstream& out, const char* key, const EngineTiming& t) {
  out << "    \"" << key << "\": { \"seconds\": " << t.seconds
      << ", \"pairs_per_second\": " << t.pairs_per_second
      << ", \"gcups\": " << t.gcups << " }";
}

struct ScalingPoint {
  std::size_t threads = 0;  // real pool size (== requested)
  double seconds = 0.0;     // best-of-reps pipelined wall clock
  double speedup_vs_1 = 0.0;
  bool identical_to_serial = false;  // bit-compared vs run_serial
};

struct ScalingCurve {
  std::string name;
  std::vector<ScalingPoint> points;
  bool all_identical = true;
};

/// Engine sim wall-clock at each requested thread count, every point
/// bit-compared (outputs + modeled report) against the serial reference
/// schedule. One pool per point: the pool size IS the independent variable
/// here, unlike the main sections which share the --threads pool.
ScalingCurve run_scaling(const std::string& name,
                         const data::SyntheticConfig& data_config,
                         std::size_t batch_pairs,
                         const std::vector<std::size_t>& thread_counts,
                         int reps) {
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<core::PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  core::PimAlignerConfig config;
  config.nr_ranks = 2;
  config.batch_pairs = batch_pairs;

  const RunResult reference = run_serial(pairs, config);

  ScalingCurve curve;
  curve.name = name;
  double base_seconds = 0.0;
  for (const std::size_t t : thread_counts) {
    ThreadPool pool(t);
    ScalingPoint point;
    point.threads = pool.size();
    point.seconds = 1e100;
    point.identical_to_serial = true;
    for (int rep = 0; rep < reps; ++rep) {
      const RunResult r = run_once(pairs, config, pool);
      point.seconds = std::min(point.seconds, r.seconds);
      if (!same_outputs(r.out, reference.out) ||
          !same_report(r.report, reference.report)) {
        point.identical_to_serial = false;
      }
    }
    if (base_seconds == 0.0) base_seconds = point.seconds;
    point.speedup_vs_1 = base_seconds / point.seconds;
    if (!point.identical_to_serial) curve.all_identical = false;
    std::printf("%-8s scaling threads=%zu  %7.3fs  speedup %.2fx  %s\n",
                name.c_str(), point.threads, point.seconds,
                point.speedup_vs_1,
                point.identical_to_serial ? "bit-identical"
                                          : "MISMATCH vs serial");
    curve.points.push_back(point);
  }
  return curve;
}

/// --identity-smoke: the threads 2-vs-1 bit-identity gate verify.sh runs in
/// its default (non --bench) pass. The engine at its default window on 1
/// and 2 workers is compared against the serial reference schedule on a
/// small S=1000 slice. Returns a process exit status; no JSON is written.
int run_identity_smoke(std::uint64_t seed) {
  const data::PairDataset dataset =
      data::generate_synthetic(data::s1000_config(96, seed));
  std::vector<core::PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  core::PimAlignerConfig config;
  config.nr_ranks = 2;
  config.batch_pairs = 24;  // several batches, so the pipeline window fills

  const RunResult reference = run_serial(pairs, config);
  for (const std::size_t threads : {1, 2}) {
    ThreadPool pool(threads);
    const RunResult r = run_once(pairs, config, pool);
    if (!same_outputs(r.out, reference.out)) {
      std::fprintf(stderr,
                   "identity smoke FAILED: %zu-thread outputs differ from "
                   "the serial schedule\n",
                   threads);
      return 1;
    }
    if (!same_report(r.report, reference.report)) {
      std::fprintf(stderr,
                   "identity smoke FAILED: %zu-thread modeled report differs "
                   "from the serial schedule\n",
                   threads);
      return 1;
    }
  }
  std::printf("identity smoke passed: 1 and 2 threads at window %zu "
              "bit-identical to the serial schedule (1 thread, window 1) on "
              "%zu pairs\n",
              config.batch_window, pairs.size());
  return 0;
}

std::vector<std::size_t> parse_thread_list(const std::string& s) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string tok = s.substr(pos, comma - pos);
    if (!tok.empty()) {
      out.push_back(std::max<std::size_t>(1, std::stoul(tok)));
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("host_throughput",
          "End-to-end host path wall-clock of the pipelined work-stealing "
          "engine");
  cli.flag("threads", std::int64_t{0},
           "worker threads (0 = hardware concurrency "
           "clamped to the cgroup CPU quota; the ISSUE 2 speedup target "
           "assumes >= 8 hardware threads)");
  cli.flag("s1000-pairs", std::int64_t{256}, "pair count for S=1000");
  cli.flag("s10000-pairs", std::int64_t{64}, "pair count for S=10000");
  cli.flag("reps", std::int64_t{3}, "repetitions (best-of)");
  cli.flag("seed", std::int64_t{7}, "dataset seed");
  cli.flag("out", std::string("BENCH_host.json"), "output JSON path");
  cli.flag("trace", std::string(""),
           "also run one instrumented pipelined S=1000 pass and write a "
           "Chrome/Perfetto trace (host pipeline + modeled PiM timeline) to "
           "this path");
  cli.flag("stats", std::string(""),
           "write the instrumented pass's per-run stats report JSON "
           "(pairs/s, GCUPS, per-DPU cycle distribution, steal counters) "
           "to this path; implies the --trace pass");
  cli.flag("backend", std::string("pim"),
           "backend of the dispatched pass under --policy single: "
           "pim | cpu | wfa");
  cli.flag("policy", std::string("single"),
           "routing policy of the dispatched pass: single | threshold | cost");
  cli.flag("scaling", std::string("1,2,4,8"),
           "comma-separated thread counts for the scaling section (engine "
           "sim seconds vs threads, bit-checked against the serial "
           "schedule); empty disables it");
  cli.flag("identity-smoke", false,
           "run only the threads 2-vs-1 bit-identity gate (vs the serial "
           "1-thread, window-1 schedule) and exit with the verdict; writes "
           "no JSON");
  cli.flag("list-kernels", false,
           "print the registered PiM kernels and exit");
  cli.flag("log-level", std::string("info"),
           "stderr log level: debug | info | warn | error");
  cli.parse(argc, argv);

  if (!set_log_level_by_name(cli.get_string("log-level"))) {
    std::fprintf(stderr, "unknown --log-level %s\n",
                 cli.get_string("log-level").c_str());
    return 1;
  }

  if (cli.get_bool("list-kernels")) {
    std::printf("registered PiM kernels:\n");
    for (const core::PimKernel* k : core::registered_kernels()) {
      std::printf("  %-8s %s\n", k->name(), k->description());
    }
    return 0;
  }

  // A kind time_dispatch does not register aborts at routing time.
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

  auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (threads == 0) {
    threads = default_worker_threads();  // hw threads clamped to cgroup quota
  }
  const int reps = static_cast<int>(cli.get_int("reps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  if (cli.get_bool("identity-smoke")) {
    return run_identity_smoke(seed);
  }

  ThreadPool workers(threads);

  const auto s1000 = data::s1000_config(
      static_cast<std::size_t>(cli.get_int("s1000-pairs")), seed);
  const auto s10000 = data::s10000_config(
      static_cast<std::size_t>(cli.get_int("s10000-pairs")), seed);

  std::vector<WorkloadResult> results;
  results.push_back(
      run_workload("S1000", s1000, 64, workers, reps, *backend_kind, *policy));
  results.push_back(run_workload("S10000", s10000, 16, workers, reps,
                                 *backend_kind, *policy));

  const std::vector<std::size_t> scaling_threads =
      parse_thread_list(cli.get_string("scaling"));
  std::vector<ScalingCurve> scaling;
  bool scaling_identical = true;
  if (!scaling_threads.empty()) {
    scaling.push_back(run_scaling("S1000", s1000, 64, scaling_threads, reps));
    scaling.push_back(
        run_scaling("S10000", s10000, 16, scaling_threads, reps));
    for (const ScalingCurve& c : scaling) {
      scaling_identical = scaling_identical && c.all_identical;
    }
  }

  const std::string path = cli.get_string("out");
  std::ofstream out(path);
  out << "{\n";
  out << "  \"batch_window\": " << core::PimAlignerConfig{}.batch_window
      << ",\n";
  {
    // Same modeled configuration the workloads ran (2 ranks, defaults).
    // Machine-dependent facts — the pool size the sections really ran with
    // and the host's hardware concurrency — live here so bench_diff skips
    // them with the rest of the provenance stamp.
    core::PimAlignerConfig proto;
    proto.nr_ranks = 2;
    out << "  \"provenance\": "
        << provenance_json(core::params_json(proto),
                           machine_json(workers.size()))
        << ",\n";
  }
  out << "  \"dispatch_backend\": \"" << core::backend_kind_name(*backend_kind)
      << "\",\n";
  out << "  \"dispatch_policy\": \"" << core::route_policy_name(*policy)
      << "\",\n";
  for (const WorkloadResult& r : results) {
    out << "  \"" << r.name << "\": {\n";
    out << "    \"pairs\": " << r.pairs << ",\n";
    out << "    \"read_length\": " << r.read_length << ",\n";
    out << "    \"machine\": { \"threads\": " << r.threads << " },\n";
    write_engine(out, "pipelined", r.pipelined);
    out << ",\n";
    write_engine(out, "dispatch", r.dispatch);
    out << "\n  },\n";
  }
  out << "  \"scaling\": {\n";
  out << "    \"note\": \"pipelined sim wall-clock vs worker threads; "
         "machine-dependent, skipped by bench_diff; every point "
         "bit-compared against the threads=1 serial schedule\"";
  for (const ScalingCurve& c : scaling) {
    out << ",\n    \"" << c.name << "\": [\n";
    for (std::size_t i = 0; i < c.points.size(); ++i) {
      const ScalingPoint& p = c.points[i];
      out << "      { \"threads\": " << p.threads
          << ", \"seconds\": " << p.seconds
          << ", \"speedup_vs_1\": " << p.speedup_vs_1
          << ", \"identical_to_serial\": "
          << (p.identical_to_serial ? "true" : "false") << " }"
          << (i + 1 < c.points.size() ? "," : "") << "\n";
    }
    out << "    ]";
  }
  out << "\n  }\n";
  out << "}\n";
  std::printf("wrote %s\n", path.c_str());

  if (!scaling_identical) {
    std::fprintf(stderr,
                 "scaling sweep found outputs NOT bit-identical to the "
                 "serial schedule — see the scaling section of %s\n",
                 path.c_str());
    return 1;
  }

  const std::string trace_path = cli.get_string("trace");
  const std::string stats_path = cli.get_string("stats");
  if (!trace_path.empty() || !stats_path.empty()) {
    run_traced(s1000, 64, workers, trace_path, stats_path);
  }
  return 0;
}
