// Microbenchmarks (google-benchmark) of the library's primitives: the DP
// kernels (full / static / adaptive / KSW2-like), 2-bit packing, and the
// simulated DPU kernel end-to-end. These are not paper tables — they are
// the performance regression harness for the library itself.
//
// The custom main() additionally times the simulator's two SimPaths (the
// scalar reference and auto, band runs in the widest copy of the band sweep
// the CPU runs) at the paper's band width on a 10 kb pair and on one DPU
// launch of 1 kb S1000 pairs, whose band crosses the matrix's edges on 13% of
// its anti-diagonals, and writes the cells/s comparison, with the ISA auto
// ran, to BENCH_kernel.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "align/banded_adaptive.hpp"
#include "core/kernel_simd.hpp"
#include "align/banded_static.hpp"
#include "align/edit_distance.hpp"
#include "align/wfa.hpp"
#include "align/nw_full.hpp"
#include "baseline/ksw2_like.hpp"
#include "core/dpu_kernel.hpp"
#include "core/host.hpp"
#include "core/mram_layout.hpp"
#include "data/mutate.hpp"
#include "data/synthetic.hpp"
#include "dna/packed_sequence.hpp"
#include "util/provenance.hpp"
#include "util/rng.hpp"

namespace {

using namespace pimnw;

std::pair<std::string, std::string> make_pair_of(std::size_t length,
                                                 double error_rate) {
  Xoshiro256 rng(0xBEEF + length);
  std::string a = data::random_dna(length, rng);
  data::ErrorModel errors;
  errors.error_rate = error_rate;
  std::string b = data::mutate(a, errors, rng);
  return {std::move(a), std::move(b)};
}

void BM_NwFull(benchmark::State& state) {
  const auto [a, b] = make_pair_of(static_cast<std::size_t>(state.range(0)),
                                   0.05);
  align::NwFullOptions options;
  options.traceback = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::nw_full(a, b, align::default_scoring(), options).score);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(a.size() * b.size()));
}
BENCHMARK(BM_NwFull)->Arg(500)->Arg(2000);

void BM_BandedStatic(benchmark::State& state) {
  const auto [a, b] = make_pair_of(4000, 0.05);
  align::BandedStaticOptions options;
  options.band_width = state.range(0);
  options.traceback = true;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto r = align::banded_static(a, b, align::default_scoring(),
                                        options);
    benchmark::DoNotOptimize(r.score);
    cells = r.cells;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_BandedStatic)->Arg(128)->Arg(512);

void BM_BandedAdaptive(benchmark::State& state) {
  const auto [a, b] = make_pair_of(4000, 0.05);
  align::BandedAdaptiveOptions options;
  options.band_width = state.range(0);
  options.traceback = true;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto r = align::banded_adaptive(a, b, align::default_scoring(),
                                          options);
    benchmark::DoNotOptimize(r.score);
    cells = r.cells;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_BandedAdaptive)->Arg(128)->Arg(512);

void BM_Ksw2Like(benchmark::State& state) {
  const auto [a, b] = make_pair_of(4000, 0.05);
  baseline::Ksw2Options options;
  options.band_width = state.range(0);
  options.traceback = true;
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto r =
        baseline::ksw2_align(a, b, align::default_scoring(), options);
    benchmark::DoNotOptimize(r.score);
    cells = r.cells;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_Ksw2Like)->Arg(128)->Arg(512);

void BM_Pack2Bit(benchmark::State& state) {
  Xoshiro256 rng(1);
  const std::string seq = data::random_dna(1 << 16, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dna::PackedSequence::pack(seq).bytes().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(seq.size()));
}
BENCHMARK(BM_Pack2Bit);

void BM_WfaScore(benchmark::State& state) {
  const auto [a, b] = make_pair_of(4000,
                                   static_cast<double>(state.range(0)) / 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        align::wfa_score(a, b, align::default_scoring()));
  }
}
BENCHMARK(BM_WfaScore)->Arg(2)->Arg(10);  // 2% and 10% divergence

void BM_EditDistanceBounded(benchmark::State& state) {
  const auto [a, b] = make_pair_of(4000, 0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(align::edit_distance_bounded(a, b, 600));
  }
}
BENCHMARK(BM_EditDistanceBounded);

void BM_DpuKernelSinglePair(benchmark::State& state) {
  const auto [a, b] = make_pair_of(2000, 0.05);
  core::PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 128;
  std::vector<core::PairInput> pairs = {{a, b}};
  for (auto _ : state) {
    core::PimAligner aligner(config);
    std::vector<core::PairOutput> out;
    (void)aligner.align_pairs(pairs, &out);
    benchmark::DoNotOptimize(out[0].score);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>((a.size() + b.size()) * 128));
}
BENCHMARK(BM_DpuKernelSinglePair);

/// Simulated DPU kernel under each SimPath, w=128, 10kb pair. Items = band
/// cells, so the reported items/s is cells/s; divide by 1e9 for GCUPS.
void BM_DpuKernelPath(benchmark::State& state) {
  const auto [a, b] = make_pair_of(10000, 0.05);
  core::PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 128;
  config.sim_path = static_cast<core::SimPath>(state.range(0));
  config.align.traceback = state.range(1) != 0;
  std::vector<core::PairInput> pairs = {{a, b}};
  for (auto _ : state) {
    core::PimAligner aligner(config);
    std::vector<core::PairOutput> out;
    (void)aligner.align_pairs(pairs, &out);
    benchmark::DoNotOptimize(out[0].score);
  }
  state.SetLabel(std::string(core::sim_path_name(config.sim_path)) +
                 (config.align.traceback ? "/traceback" : "/score-only"));
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>((a.size() + b.size() + 1) * 128));
}
BENCHMARK(BM_DpuKernelPath)
    ->Args({static_cast<int>(core::SimPath::kScalar), 0})
    ->Args({static_cast<int>(core::SimPath::kAuto), 0})
    ->Args({static_cast<int>(core::SimPath::kScalar), 1})
    ->Args({static_cast<int>(core::SimPath::kAuto), 1});

// ---------------------------------------------------------------------------
// BENCH_kernel.json: scalar vs fast path cells/s on the acceptance workload.

struct PathTiming {
  double seconds = 0.0;
  double cells_per_second = 0.0;
};

/// Best-of-`reps` seconds that `run(path)` reports under scalar and auto,
/// and the cells/s they give for `cells`. The repetitions alternate between
/// the two paths, so a change of host speed state in the middle of a run
/// hits both alike and the same-run ratio between them holds.
template <typename Run>
std::array<PathTiming, 2> time_round_robin(double cells, int reps, Run run) {
  constexpr core::SimPath kPaths[] = {core::SimPath::kScalar,
                                      core::SimPath::kAuto};
  std::array<PathTiming, 2> timings;
  for (PathTiming& timing : timings) timing.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t p = 0; p < timings.size(); ++p) {
      timings[p].seconds = std::min(timings[p].seconds, run(kPaths[p]));
    }
  }
  for (PathTiming& timing : timings) {
    timing.cells_per_second = cells / timing.seconds;
  }
  return timings;
}

/// Seconds since `start`.
double since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The full aligner run of `pairs` under each path.
std::array<PathTiming, 2> time_paths(const std::vector<core::PairInput>& pairs,
                                     core::PimAlignerConfig config,
                                     double cells, int reps) {
  return time_round_robin(cells, reps, [&](core::SimPath path) {
    config.sim_path = path;
    core::PimAligner aligner(config);
    std::vector<core::PairOutput> out;
    const auto start = std::chrono::steady_clock::now();
    (void)aligner.align_pairs(pairs, &out);
    const double seconds = since(start);
    benchmark::DoNotOptimize(out[0].score);
    return seconds;
  });
}

/// One simulated DPU launch of `pairs` under each path (an MRAM image built
/// once, the program launched per repetition). A DPU aligns its pairs on
/// one thread, so 1 kb pairs time the kernel without the engine's per-call
/// setup or its fan-out over workers.
std::array<PathTiming, 2> time_launch_paths(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    std::int64_t band, bool traceback, double cells, int reps) {
  std::vector<std::string_view> seqs;
  core::DpuBatchInput batch;
  for (std::uint32_t p = 0; p < pairs.size(); ++p) {
    seqs.push_back(pairs[p].first);
    seqs.push_back(pairs[p].second);
    batch.pairs.push_back({2 * p, 2 * p + 1, p});
  }
  core::AlignConfig align;
  align.band_width = band;
  align.traceback = traceback;
  const core::PoolConfig pool;
  const core::MramImage image = core::build_mram_image(
      batch, core::SeqPool::build(seqs), core::nw_kernel(), align, pool);
  upmem::Dpu dpu;
  dpu.mram().write(0, image.bytes);
  return time_round_robin(cells, reps, [&](core::SimPath path) {
    core::NwDpuProgram program(pool, core::KernelVariant::kAsm, path);
    const auto start = std::chrono::steady_clock::now();
    const auto summary =
        dpu.launch(program, pool.pools, pool.tasklets_per_pool);
    const double seconds = since(start);
    benchmark::DoNotOptimize(summary.cycles);
    return seconds;
  });
}

void write_json_block(std::ofstream& os, const char* name,
                      const std::array<PathTiming, 2>& timings) {
  const auto& [scalar, fast] = timings;
  auto entry = [&](const char* key, const PathTiming& t, const char* tail) {
    os << "    \"" << key << "\": { \"seconds\": " << t.seconds
       << ", \"cells_per_second\": " << t.cells_per_second
       << ", \"gcups\": " << t.cells_per_second / 1e9 << " }" << tail << "\n";
  };
  os << "  \"" << name << "\": {\n";
  entry("scalar", scalar, ",");
  entry("auto", fast, ",");
  os << "    \"speedup_auto_vs_scalar\": "
     << fast.cells_per_second / scalar.cells_per_second << "\n  }";
}

void emit_kernel_json(const char* path) {
  const std::size_t length = 10000;
  const std::int64_t band = 128;
  const auto [a, b] = make_pair_of(length, 0.05);
  const std::vector<core::PairInput> pairs = {{a, b}};
  const double cells =
      static_cast<double>(a.size() + b.size() + 1) * static_cast<double>(band);
  // One DPU's share of an S1000 batch: 24 pairs, as 6 pools see 4 each.
  const std::size_t s1000_pairs = 24;
  const data::PairDataset s1000 =
      data::generate_synthetic(data::s1000_config(s1000_pairs, 1));
  double s1000_cells = 0.0;
  for (const auto& [sa, sb] : s1000.pairs) {
    s1000_cells += static_cast<double>(sa.size() + sb.size() + 1) *
                   static_cast<double>(band);
  }

  core::PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = band;
  // Best-of-12: the regression gate (scripts/bench_diff.py) compares these
  // wall-clock numbers across runs, so squeeze scheduling noise hard.
  const int reps = 12;

  std::ofstream os(path);
  os << "{\n";
  os << "  \"workload\": { \"pair_length\": " << length
     << ", \"band_width\": " << band << ", \"error_rate\": 0.05"
     << ", \"s1000_pairs\": " << s1000_pairs
     << ", \"isa\": \"" << core::simd::isa_name(core::simd::auto_isa())
     << "\" },\n";
  os << "  \"provenance\": " << provenance_json(core::params_json(config))
     << ",\n";

  config.align.traceback = false;
  write_json_block(os, "score_only", time_paths(pairs, config, cells, reps));
  os << ",\n";

  config.align.traceback = true;
  write_json_block(os, "traceback", time_paths(pairs, config, cells, reps));
  os << ",\n";

  write_json_block(os, "s1000_score_only",
                   time_launch_paths(s1000.pairs, band, false, s1000_cells,
                                     reps));
  os << ",\n";
  write_json_block(os, "s1000_traceback",
                   time_launch_paths(s1000.pairs, band, true, s1000_cells,
                                     reps));
  os << "\n}\n";
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_kernel_json("BENCH_kernel.json");
  return 0;
}
