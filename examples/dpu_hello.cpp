// dpu_hello — the UPMEM substrate without the alignment stack: write your
// own DPU kernel against the simulator.
//
// The kernel below is the PiM "hello world": each DPU sums an array of
// uint64 it finds in its MRAM, using all tasklets (a parallel reduction
// with one partial sum per tasklet), and writes the result back. The host
// side runs one rank of 64 DPUs through the same four-step loop as the
// paper's host program (§4.1): scatter per-DPU data into the banks, launch,
// wait on the rank barrier, gather. Like the execution engine, it charges
// the transfers through the bus model (upmem/system.hpp) and folds the
// per-DPU launches through the barrier (upmem/rank.hpp).
#include <algorithm>
#include <array>
#include <cstring>
#include <iostream>
#include <vector>

#include "upmem/dpu.hpp"
#include "upmem/rank.hpp"
#include "upmem/system.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace pimnw;

constexpr std::uint64_t kCountOffset = 0;
constexpr std::uint64_t kDataOffset = 8;
constexpr std::uint64_t kResultOffset = 1 << 20;

/// The DPU program: parallel sum over the MRAM array.
class SumKernel : public upmem::DpuProgram {
 public:
  explicit SumKernel(int tasklets) : tasklets_(tasklets) {}

  void run(upmem::DpuContext& ctx) override {
    upmem::PoolCost& pool = ctx.cost.pool(0);

    // Read the element count.
    const std::uint64_t header = ctx.wram.alloc(8);
    ctx.mram_read(kCountOffset, header, 8);
    pool.dma(8);
    std::uint64_t count;
    std::memcpy(&count, ctx.wram.raw(header, 8), 8);
    pool.serial(20);  // bootstrap arithmetic

    // Stream the array through a WRAM tile, accumulating. Each chunk's
    // additions are split across the tasklets (balanced_step).
    constexpr std::uint64_t kTileElems = 256;  // 2 KB tile = one DMA
    const std::uint64_t tile = ctx.wram.alloc(kTileElems * 8);
    std::uint64_t sum = 0;
    for (std::uint64_t done = 0; done < count; done += kTileElems) {
      const std::uint64_t elems = std::min(kTileElems, count - done);
      const std::uint64_t bytes = ((elems * 8 + 7) / 8) * 8;
      ctx.mram_read(kDataOffset + done * 8, tile, bytes);
      pool.dma(bytes);
      const auto view = ctx.wram.view<std::uint64_t>(tile, elems);
      for (std::uint64_t v : view) sum += v;
      pool.balanced_step(elems * 3, tasklets_);  // load+add+loop per element
    }

    // Write the result.
    std::memcpy(ctx.wram.raw(header, 8), &sum, 8);
    ctx.mram_write(header, kResultOffset, 8);
    pool.dma(8);
  }

 private:
  int tasklets_;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("dpu_hello", "parallel sum on the 64 simulated DPUs of one rank");
  cli.flag("elems", std::int64_t{100'000}, "uint64 elements per DPU");
  cli.flag("tasklets", std::int64_t{16}, "tasklets per DPU");
  cli.parse(argc, argv);

  const auto elems = static_cast<std::uint64_t>(cli.get_int("elems"));
  const int tasklets = static_cast<int>(cli.get_int("tasklets"));
  constexpr auto kDpus = static_cast<std::size_t>(upmem::kDpusPerRank);

  std::vector<upmem::Dpu> dpus(kDpus);
  std::cout << "allocated " << dpus.size() << " DPUs in 1 rank\n";

  // Scatter: every DPU gets its own random array (count header + payload).
  Xoshiro256 rng(1);
  std::vector<std::uint64_t> expected(kDpus, 0);
  std::vector<std::uint8_t> buffer(8 + elems * 8);
  std::uint64_t in_bytes = 0;
  for (std::size_t d = 0; d < kDpus; ++d) {
    std::memcpy(buffer.data(), &elems, 8);
    for (std::uint64_t e = 0; e < elems; ++e) {
      const std::uint64_t v = rng.below(1000);
      std::memcpy(buffer.data() + 8 + e * 8, &v, 8);
      expected[d] += v;
    }
    dpus[d].mram().write(kCountOffset, buffer);
    in_bytes += buffer.size();
  }
  const upmem::TransferStats in = upmem::transfer_stats(in_bytes);

  // Launch one kernel per DPU; the rank finishes at its barrier.
  std::array<upmem::DpuCostModel::Summary, kDpus> summaries{};
  std::array<bool, kDpus> ran{};
  for (std::size_t d = 0; d < kDpus; ++d) {
    SumKernel kernel(tasklets);
    summaries[d] = dpus[d].launch(kernel, /*pools=*/1, tasklets);
    ran[d] = true;
  }
  const upmem::LaunchStats exec = upmem::aggregate_launch(summaries, ran);

  // Gather and check.
  std::size_t correct = 0;
  std::array<std::uint8_t, 8> result{};
  for (std::size_t d = 0; d < kDpus; ++d) {
    dpus[d].mram().read(kResultOffset, result);
    std::uint64_t sum = 0;
    std::memcpy(&sum, result.data(), 8);
    if (sum == expected[d]) ++correct;
  }
  const upmem::TransferStats out = upmem::transfer_stats(8 * kDpus);

  std::cout << correct << "/" << kDpus << " DPU sums correct\n"
            << "modeled: scatter " << in.seconds * 1e3 << " ms, exec "
            << exec.seconds * 1e3 << " ms, gather " << out.seconds * 1e6
            << " us\n"
            << "pipeline utilisation "
            << exec.mean_pipeline_utilization * 100 << "%, MRAM overhead "
            << exec.mean_mram_overhead * 100
            << "% — a 3-instruction/element sum is DMA-bound, unlike the "
               "alignment kernel (~45 instr/cell); compare --tasklets 16 "
               "vs 8 for the 11-slot pipeline re-entry effect (§2.1)\n";
  return correct == kDpus ? 0 : 1;
}
