// The DPU batch protocol every PimKernel's program runs (paper §4.2.3,
// DESIGN.md §16).
//
// A DPU program is an alignment recurrence inside one protocol: boot from
// the batch header, let the P pools pull the next pair as each frees up,
// then stream the pair's CIGAR runs and its result back to MRAM. That half
// is the same for every kernel, so it lives here once, DMA and instruction
// charges included; a kernel keeps only its recurrence, its WRAM buffers
// and its scratch geometry.
#pragma once

#include <cstdint>
#include <span>

#include "align/scoring.hpp"
#include "core/mram_layout.hpp"
#include "dna/cigar.hpp"
#include "upmem/dpu.hpp"

namespace pimnw::core {

/// CIGAR runs a pool stages in WRAM before flushing them to MRAM.
inline constexpr std::uint32_t kRunChunk = 256;

/// DMA transfers are limited to 2048 bytes (upmem::kDmaMaxBytes); larger
/// moves are issued as a chain of maximal transfers, each charged.
void dma_read_chunked(upmem::DpuContext& ctx, upmem::PoolCost& pool,
                      std::uint64_t mram_addr, std::uint64_t wram_addr,
                      std::uint64_t bytes);

/// Everything a kernel needs about the batch, parsed from MRAM.
struct Batch {
  BatchHeader header;
  align::Scoring scoring;
  std::uint64_t scratch = 0;  // small WRAM staging area for table entries

  /// Boot: read the header (charged to pool 0's setup), check its magic and
  /// unpack the scoring.
  static Batch boot(upmem::DpuContext& ctx);

  bool traceback() const { return (header.flags & kFlagTraceback) != 0; }
  bool session() const { return (header.flags & kFlagSession) != 0; }

  SeqEntry seq_entry(upmem::DpuContext& ctx, upmem::PoolCost& pool,
                     std::uint32_t index) const;
  /// A session round's compact entry comes back as a PairEntry whose
  /// identity is its table position and which has no CIGAR slot.
  PairEntry pair_entry(upmem::DpuContext& ctx, upmem::PoolCost& pool,
                       std::uint32_t index) const;
};

/// A pool's WRAM staging for CIGAR runs, also used to stage its results.
struct RunBuffer {
  std::uint64_t addr = 0;
  std::span<std::uint32_t> runs;

  void allocate(upmem::DpuContext& ctx);
};

/// Work distribution (§4.2.3): each pool pulls the next pair as soon as it
/// finishes its current one; the cost model says which pool that is.
/// Calls align_pair(p, pool, pair, pair_index) once per pair of the batch.
template <typename AlignPair>
void for_each_pair(upmem::DpuContext& ctx, const Batch& batch,
                   AlignPair&& align_pair) {
  for (std::uint32_t pair_index = 0; pair_index < batch.header.nr_pairs;
       ++pair_index) {
    const int p = ctx.cost.least_loaded_pool();
    upmem::PoolCost& pool = ctx.cost.pool(p);
    align_pair(p, pool, batch.pair_entry(ctx, pool, pair_index), pair_index);
  }
}

/// One pair's output. The pair's pool cycles and DMA bytes count from
/// construction to write(); the CIGAR streams back to front into the
/// pair's MRAM slot (a CIGAR that overflows it leaves kStatusCigarOverflow);
/// the result goes back as a PairResult, or as a compact SessionResult in a
/// session round.
class PairWriter {
 public:
  PairWriter(upmem::DpuContext& ctx, upmem::PoolCost& pool,
             const Batch& batch, const PairEntry& pair,
             std::uint32_t pair_index, RunBuffer& buffer);

  /// Stream `cigar` and charge its walk at `op_instr` per alignment column.
  void put_cigar(const dna::Cigar& cigar, std::uint64_t op_instr);
  /// Write the result of a pair that reached its end with `score`.
  void write(align::Score score);
  /// Write the result of a pair the kernel could not finish: score 0,
  /// kStatusUnreachable.
  void write_unreachable();

 private:
  std::uint64_t pool_cycles_now() const;
  void emit_run(dna::CigarOp op, std::uint32_t len);
  void flush_runs(bool final_flush);
  void write_back();

  upmem::DpuContext& ctx_;
  upmem::PoolCost& pool_;
  const Batch& batch_;
  const PairEntry pair_;
  std::uint32_t pair_index_;
  RunBuffer& buf_;
  std::uint64_t cycles_before_;
  std::uint64_t dma_before_;
  PairResult result_{};

  std::uint32_t runs_staged_ = 0;   // runs in buf_
  std::uint64_t runs_flushed_ = 0;  // runs already in MRAM
  bool overflow_ = false;
};

}  // namespace pimnw::core
