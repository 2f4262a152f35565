// pimnw_prof — phase-level cycle-attribution profile of a PiM run
// (ISSUE 5, DESIGN.md §12 "Profiler").
//
// Runs a synthetic workload through PimAligner with the emulated hardware
// counters folded into a run-wide DpuPhaseProfile, then prints a Table-7
// style breakdown: cycles per kernel phase (setup/2-bit decode, anti-diagonal
// compute, band-shift decision, BT-to-MRAM streaming, traceback), the
// un-hidden MRAM stall per phase, the pipeline re-entry slack, a roofline
// summary (issue-bound vs MRAM-port-bound), the DMA size histogram,
// per-tasklet occupancy, and the bottleneck verdict.
//
// The attribution reconciles exactly: the printed rows sum to the launch
// cycle total (profiler_test pins this), and enabling the profiler changes
// no score, CIGAR, cycle count or DMA byte.
//
// Exploring the regimes:
//   --kernel wfa --length 2000   wavefronts streamed to and from MRAM every
//                                cost step make the verdict MRAM-bound
//   --pools/--tasklets           small P*T (< 11) exposes the re-entry-bound
//                                regime
//
// --json-out writes the stats report (with the "profile" object and the
// provenance stamp); --trace-out writes a Perfetto trace whose modeled DPU
// spans are tiled with phase sub-spans plus utilisation counter tracks.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/host.hpp"
#include "core/pim_kernel.hpp"
#include "core/stats.hpp"
#include "data/synthetic.hpp"
#include "upmem/cost_model.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

int main(int argc, char** argv) {
  using namespace pimnw;
  Cli cli("pimnw_prof",
          "phase-level cycle-attribution profile of a PiM run (DESIGN.md §12)");
  cli.flag("pairs", std::int64_t{1536},
           "number of synthetic read pairs (default keeps every pool of "
           "every DPU busy — the paper's 95-99% regime)");
  cli.flag("length", std::int64_t{10000}, "read length (Table 7 uses 10k)");
  cli.flag("band-width", std::int64_t{128}, "adaptive band width");
  cli.flag("pools", std::int64_t{6}, "tasklet pools per DPU (paper: 6)");
  cli.flag("tasklets", std::int64_t{4}, "tasklets per pool (paper: 4)");
  cli.flag("ranks", std::int64_t{1}, "modeled UPMEM ranks");
  cli.flag("threads", std::int64_t{0},
           "worker threads (0 = hardware concurrency)");
  cli.flag("seed", std::int64_t{7}, "dataset seed");
  cli.flag("variant", std::string("asm"), "kernel variant: asm | c");
  cli.flag("traceback", true, "produce CIGARs (score-only when false)");
  cli.flag("kernel", std::string("nw"),
           "PiM kernel to profile (see --list-kernels)");
  cli.flag("list-kernels", false,
           "print the registered PiM kernels and exit");
  cli.flag("log-level", std::string("info"),
           "stderr log level: debug | info | warn | error");
  cli.flag("json-out", std::string(""),
           "stats report path (empty = don't write)");
  cli.flag("trace-out", std::string(""),
           "Perfetto trace path (empty = don't trace)");
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

  const core::PimKernel* kernel =
      core::find_kernel(cli.get_string("kernel"));
  if (kernel == nullptr) {
    std::fprintf(stderr, "unknown --kernel %s (try --list-kernels)\n",
                 cli.get_string("kernel").c_str());
    return 1;
  }

  auto threads = static_cast<std::size_t>(cli.get_int("threads"));
  if (threads == 0) {
    threads = default_worker_threads();  // hw threads clamped to cgroup quota
  }
  ThreadPool workers(threads);

  core::StatsCollector stats;
  core::PimAlignerConfig config;
  config.nr_ranks = static_cast<int>(cli.get_int("ranks"));
  config.pool.pools = static_cast<int>(cli.get_int("pools"));
  config.pool.tasklets_per_pool = static_cast<int>(cli.get_int("tasklets"));
  config.variant = cli.get_string("variant") == "c"
                       ? core::KernelVariant::kPureC
                       : core::KernelVariant::kAsm;
  config.kernel = kernel;
  config.align.band_width = cli.get_int("band-width");
  config.align.traceback = cli.get_bool("traceback");
  config.workers = &workers;
  config.stats = &stats;

  data::SyntheticConfig data_config = data::s1000_config(
      static_cast<std::size_t>(cli.get_int("pairs")),
      static_cast<std::uint64_t>(cli.get_int("seed")));
  data_config.read_length = static_cast<std::size_t>(cli.get_int("length"));
  const data::PairDataset dataset = data::generate_synthetic(data_config);
  std::vector<core::PairInput> pairs;
  pairs.reserve(dataset.pairs.size());
  for (const auto& [a, b] : dataset.pairs) pairs.push_back({a, b});

  const bool tracing = !cli.get_string("trace-out").empty();
  if (tracing) {
    trace::set_enabled(true);
    trace::set_thread_name("main");
  }
  core::PimAligner aligner(config);
  std::vector<core::PairOutput> out;
  const core::RunReport report = aligner.align_pairs(pairs, &out);
  if (tracing) trace::set_enabled(false);

  if (!stats.has_profile()) {
    std::fprintf(stderr, "no profile collected (no launches?)\n");
    return 1;
  }
  const upmem::DpuPhaseProfile& prof = stats.profile();
  const auto pct = [&](std::uint64_t cycles) {
    return prof.cycles > 0 ? 100.0 * static_cast<double>(cycles) /
                                 static_cast<double>(prof.cycles)
                           : 0.0;
  };

  std::printf(
      "pimnw-prof: %zu pairs x %zu bp, band %" PRId64
      ", P=%d T=%d, %s kernel (%s variant)\n",
      pairs.size(), data_config.read_length, cli.get_int("band-width"),
      config.pool.pools, config.pool.tasklets_per_pool, kernel->name(),
      core::kernel_variant_name(config.variant));
  std::printf("%" PRIu64 " pairs aligned over %" PRIu64
              " DPU launches; modeled makespan %.3f ms\n\n",
              report.total_pairs, stats.dpu_count(),
              report.makespan_seconds * 1e3);

  // Row labels come from the kernel's declared phase table (DESIGN.md §16):
  // phases the kernel does not declare (e.g. band-shift under WFA) are only
  // printed when they carry cycles, flagged as undeclared.
  const auto phase_label = [&](upmem::Phase ph) -> const char* {
    for (const core::KernelPhase& p : kernel->phase_table()) {
      if (p.phase == ph) return p.label;
    }
    return nullptr;
  };
  std::printf("phase breakdown (cycles summed over all DPU launches):\n");
  std::printf("  %-14s %16s %7s %16s %16s\n", "phase", "issue cycles", "%",
              "dma stall cyc", "dma bytes");
  for (int ph = 0; ph < upmem::kPhaseCount; ++ph) {
    const auto i = static_cast<std::size_t>(ph);
    const char* label = phase_label(static_cast<upmem::Phase>(ph));
    if (label == nullptr) {
      if (prof.issue_cycles[i] == 0 && prof.dma_stall_cycles[i] == 0 &&
          prof.dma_bytes[i] == 0) {
        continue;  // phase not declared by this kernel, and empty
      }
      label = upmem::phase_name(static_cast<upmem::Phase>(ph));
      std::printf("  %-14s (undeclared by kernel '%s')\n", label,
                  kernel->name());
    }
    std::printf("  %-14s %16" PRIu64 " %6.2f%% %16" PRIu64 " %16" PRIu64 "\n",
                label, prof.issue_cycles[i],
                pct(prof.issue_cycles[i] + prof.dma_stall_cycles[i]),
                prof.dma_stall_cycles[i], prof.dma_bytes[i]);
  }
  std::printf("  %-14s %16" PRIu64 " %6.2f%%\n", "reentry stall",
              prof.reentry_stall_cycles, pct(prof.reentry_stall_cycles));
  std::printf("  %-14s %16" PRIu64 "  (reconciles %s with launch cycles)\n\n",
              "total", prof.attributed_cycles(),
              prof.attributed_cycles() == prof.cycles ? "exactly"
                                                      : "WITH ERROR");

  std::printf("roofline: pipeline util %.2f%% (stall %.2f%%), un-hidden MRAM "
              "stall %.2f%%, MRAM contention %" PRIu64 " cyc\n",
              100.0 * (1.0 - prof.stall_fraction()),
              100.0 * prof.stall_fraction(),
              pct(prof.total_dma_stall_cycles()),
              prof.mram_contention_cycles);
  const auto& verdicts = stats.verdict_dpus();
  std::printf("verdict: %s (DPU launches: %" PRIu64 " pipeline / %" PRIu64
              " mram / %" PRIu64 " reentry)\n\n",
              upmem::bottleneck_name(prof.bottleneck), verdicts[0],
              verdicts[1], verdicts[2]);

  std::printf("dma size histogram (transfers per bucket):\n ");
  for (int b = 0; b < upmem::kDmaHistBuckets; ++b) {
    if (prof.dma_hist[static_cast<std::size_t>(b)] == 0) continue;
    std::printf(" <=%" PRIu64 "B:%" PRIu64, upmem::dma_hist_bucket_bytes(b),
                prof.dma_hist[static_cast<std::size_t>(b)]);
  }
  std::printf("\n");

  std::uint64_t occ_min = ~std::uint64_t{0};
  std::uint64_t occ_max = 0;
  std::uint64_t occ_sum = 0;
  const int slots = std::min(prof.active_tasklets, upmem::kMaxTasklets);
  for (int t = 0; t < slots; ++t) {
    const std::uint64_t v = prof.tasklet_instr[static_cast<std::size_t>(t)];
    occ_min = std::min(occ_min, v);
    occ_max = std::max(occ_max, v);
    occ_sum += v;
  }
  std::printf("tasklet occupancy (%d tasklets): min %" PRIu64 " / mean %.0f "
              "/ max %" PRIu64 " instructions\n",
              slots, slots > 0 ? occ_min : 0,
              slots > 0 ? static_cast<double>(occ_sum) / slots : 0.0,
              occ_max);

  const std::string json_path = cli.get_string("json-out");
  if (!json_path.empty() && stats.write_json_file(json_path, report)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  const std::string trace_path = cli.get_string("trace-out");
  if (tracing && trace::write_json_file(trace_path)) {
    std::printf("wrote %s — open it in https://ui.perfetto.dev\n",
                trace_path.c_str());
  }
  return 0;
}
