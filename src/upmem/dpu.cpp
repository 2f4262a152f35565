#include "upmem/dpu.hpp"

#include <vector>

namespace pimnw::upmem {

void DpuContext::mram_read(std::uint64_t mram_addr, std::uint64_t wram_addr,
                           std::uint64_t bytes) {
  mram.check_dma(mram_addr, bytes);
  mram.read(mram_addr, {wram.raw(wram_addr, bytes), bytes});
}

void DpuContext::mram_write(std::uint64_t wram_addr, std::uint64_t mram_addr,
                            std::uint64_t bytes) {
  mram.check_dma(mram_addr, bytes);
  mram.write(mram_addr, {wram.raw(wram_addr, bytes), bytes});
}

DpuCostModel::Summary Dpu::launch(DpuProgram& program, int pools,
                                  int tasklets_per_pool) {
  Wram wram;
  return launch(program, pools, tasklets_per_pool, wram);
}

DpuCostModel::Summary Dpu::launch(DpuProgram& program, int pools,
                                  int tasklets_per_pool, Wram& wram) {
  wram.reset();
  DpuCostModel cost(pools, tasklets_per_pool);
  DpuContext ctx{mram_, wram, cost};
  program.run(ctx);
  last_profile_ = cost.profile();
  return cost.summarize();
}

}  // namespace pimnw::upmem
