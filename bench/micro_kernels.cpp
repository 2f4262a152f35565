// Microbenchmarks (google-benchmark) of the library's primitives: the DP
// kernels (full / static / adaptive / KSW2-like), 2-bit packing, and the
// simulated DPU kernel end-to-end. These are not paper tables — they are
// the performance regression harness for the library itself.
//
// The custom main() additionally times the simulator's SimPath variants
// (scalar reference vs dense vs auto, the widest vector sweep the CPU runs)
// on a 10 kb pair at the paper's band width and writes the cells/s
// comparison, with the ISA auto ran, to BENCH_kernel.json.
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
#include "core/host.hpp"
#include "data/mutate.hpp"
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
    ->Args({static_cast<int>(core::SimPath::kDense), 0})
    ->Args({static_cast<int>(core::SimPath::kAuto), 0})
    ->Args({static_cast<int>(core::SimPath::kScalar), 1})
    ->Args({static_cast<int>(core::SimPath::kDense), 1})
    ->Args({static_cast<int>(core::SimPath::kAuto), 1});

// ---------------------------------------------------------------------------
// BENCH_kernel.json: scalar vs fast path cells/s on the acceptance workload.

struct PathTiming {
  double seconds = 0.0;
  double cells_per_second = 0.0;
};

/// Best-of-`reps` wall-clock of the full aligner run under scalar, dense and
/// auto. The repetitions go round-robin over the three paths, so a change of
/// host speed state in the middle of a run hits every path alike and the
/// same-run ratios between paths hold.
std::array<PathTiming, 3> time_paths(const std::vector<core::PairInput>& pairs,
                                     core::PimAlignerConfig config,
                                     double cells, int reps) {
  constexpr core::SimPath kPaths[] = {
      core::SimPath::kScalar, core::SimPath::kDense, core::SimPath::kAuto};
  std::array<PathTiming, 3> timings;
  for (PathTiming& timing : timings) timing.seconds = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t p = 0; p < timings.size(); ++p) {
      config.sim_path = kPaths[p];
      core::PimAligner aligner(config);
      std::vector<core::PairOutput> out;
      const auto start = std::chrono::steady_clock::now();
      (void)aligner.align_pairs(pairs, &out);
      const auto stop = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(out[0].score);
      timings[p].seconds =
          std::min(timings[p].seconds,
                   std::chrono::duration<double>(stop - start).count());
    }
  }
  for (PathTiming& timing : timings) {
    timing.cells_per_second = cells / timing.seconds;
  }
  return timings;
}

void write_json_block(std::ofstream& os, const char* name,
                      const std::array<PathTiming, 3>& timings) {
  const auto& [scalar, dense, fast] = timings;
  auto entry = [&](const char* key, const PathTiming& t, const char* tail) {
    os << "    \"" << key << "\": { \"seconds\": " << t.seconds
       << ", \"cells_per_second\": " << t.cells_per_second
       << ", \"gcups\": " << t.cells_per_second / 1e9 << " }" << tail << "\n";
  };
  os << "  \"" << name << "\": {\n";
  entry("scalar", scalar, ",");
  entry("dense", dense, ",");
  entry("auto", fast, ",");
  os << "    \"speedup_dense_vs_scalar\": "
     << dense.cells_per_second / scalar.cells_per_second << ",\n";
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
     << ", \"isa\": \"" << core::simd::isa_name(core::simd::auto_isa())
     << "\" },\n";
  os << "  \"provenance\": " << provenance_json(core::params_json(config))
     << ",\n";

  config.align.traceback = false;
  write_json_block(os, "score_only", time_paths(pairs, config, cells, reps));
  os << ",\n";

  config.align.traceback = true;
  write_json_block(os, "traceback", time_paths(pairs, config, cells, reps));
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
