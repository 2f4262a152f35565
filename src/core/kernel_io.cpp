#include "core/kernel_io.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"

namespace pimnw::core {

using upmem::DpuContext;

void dma_read_chunked(DpuContext& ctx, upmem::PoolCost& pool,
                      std::uint64_t mram_addr, std::uint64_t wram_addr,
                      std::uint64_t bytes) {
  while (bytes > 0) {
    const std::uint64_t chunk = std::min<std::uint64_t>(bytes,
                                                        upmem::kDmaMaxBytes);
    ctx.mram_read(mram_addr, wram_addr, chunk);
    pool.dma(chunk);
    mram_addr += chunk;
    wram_addr += chunk;
    bytes -= chunk;
  }
}

Batch Batch::boot(DpuContext& ctx) {
  Batch batch;
  batch.scratch = ctx.wram.alloc(128);
  upmem::PoolCost& pool = ctx.cost.pool(0);
  pool.set_phase(upmem::Phase::kSetup);
  ctx.mram_read(0, batch.scratch, align8(sizeof(BatchHeader)));
  pool.dma(align8(sizeof(BatchHeader)));
  std::memcpy(&batch.header, ctx.wram.raw(batch.scratch, sizeof(BatchHeader)),
              sizeof(BatchHeader));
  PIMNW_CHECK_MSG(batch.header.magic == kBatchMagic,
                  "DPU launched on a bank without a batch image");
  batch.scoring = align::Scoring{
      .match = batch.header.match,
      .mismatch = batch.header.mismatch,
      .gap_open = batch.header.gap_open,
      .gap_extend = batch.header.gap_extend,
  };
  return batch;
}

SeqEntry Batch::seq_entry(DpuContext& ctx, upmem::PoolCost& pool,
                          std::uint32_t index) const {
  SeqEntry entry;
  const std::uint64_t addr = header.seq_table_off + index * sizeof(SeqEntry);
  pool.set_phase(upmem::Phase::kSetup);
  ctx.mram_read(addr, scratch, sizeof(SeqEntry));
  pool.dma(sizeof(SeqEntry));
  std::memcpy(&entry, ctx.wram.raw(scratch, sizeof(SeqEntry)),
              sizeof(SeqEntry));
  return entry;
}

PairEntry Batch::pair_entry(DpuContext& ctx, upmem::PoolCost& pool,
                            std::uint32_t index) const {
  pool.set_phase(upmem::Phase::kSetup);
  if (session()) {
    SessionPairEntry compact;
    const std::uint64_t addr =
        header.pair_table_off + index * sizeof(SessionPairEntry);
    ctx.mram_read(addr, scratch, sizeof(SessionPairEntry));
    pool.dma(sizeof(SessionPairEntry));
    std::memcpy(&compact, ctx.wram.raw(scratch, sizeof(SessionPairEntry)),
                sizeof(SessionPairEntry));
    PairEntry entry{};
    entry.seq_a = compact.seq_a;
    entry.seq_b = compact.seq_b;
    entry.global_id = index;
    return entry;
  }
  PairEntry entry;
  const std::uint64_t addr = header.pair_table_off + index * sizeof(PairEntry);
  ctx.mram_read(addr, scratch, sizeof(PairEntry));
  pool.dma(sizeof(PairEntry));
  std::memcpy(&entry, ctx.wram.raw(scratch, sizeof(PairEntry)),
              sizeof(PairEntry));
  return entry;
}

void RunBuffer::allocate(DpuContext& ctx) {
  addr = ctx.wram.alloc(std::uint64_t{kRunChunk} * 4);
  runs = ctx.wram.view<std::uint32_t>(addr, kRunChunk);
}

PairWriter::PairWriter(DpuContext& ctx, upmem::PoolCost& pool,
                       const Batch& batch, const PairEntry& pair,
                       std::uint32_t pair_index, RunBuffer& buffer)
    : ctx_(ctx),
      pool_(pool),
      batch_(batch),
      pair_(pair),
      pair_index_(pair_index),
      buf_(buffer),
      cycles_before_(pool_cycles_now()),
      dma_before_(pool.dma_bytes()) {}

std::uint64_t PairWriter::pool_cycles_now() const {
  return pool_.critical_instr() *
             upmem::issue_interval(ctx_.cost.active_tasklets()) +
         pool_.critical_dma_cycles();
}

void PairWriter::put_cigar(const dna::Cigar& cigar, std::uint64_t op_instr) {
  // Runs go out back to front, as the real kernel streams them while its
  // walk moves from (m, n) towards the origin.
  const auto& items = cigar.items();
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    emit_run(it->op, it->len);
  }
  flush_runs(true);
  pool_.set_phase(upmem::Phase::kTraceback);
  pool_.serial(op_instr * cigar.columns());
  if (overflow_) {
    result_.status = kStatusCigarOverflow;
  } else {
    result_.cigar_runs = static_cast<std::uint32_t>(items.size());
  }
}

void PairWriter::write(align::Score score) {
  result_.score = score;
  write_back();
}

void PairWriter::write_unreachable() {
  result_.status = kStatusUnreachable;
  result_.score = 0;
  write_back();
}

void PairWriter::emit_run(dna::CigarOp op, std::uint32_t len) {
  if (overflow_) return;
  if (runs_flushed_ + runs_staged_ >= pair_.cigar_cap) {
    overflow_ = true;
    return;
  }
  buf_.runs[runs_staged_++] = encode_cigar_run(op, len);
  if (runs_staged_ == kRunChunk) flush_runs(false);
}

void PairWriter::flush_runs(bool final_flush) {
  if (overflow_ || runs_staged_ == 0) return;
  std::uint32_t flush_count = runs_staged_;
  if (!final_flush) {
    flush_count &= ~1u;  // keep writes 8-byte aligned mid-stream
    if (flush_count == 0) return;
  }
  const std::uint64_t bytes = align8(flush_count * 4);
  pool_.set_phase(upmem::Phase::kTraceback);
  ctx_.mram_write(buf_.addr, pair_.cigar_off + runs_flushed_ * 4, bytes);
  pool_.dma(bytes);
  runs_flushed_ += flush_count;
  if (flush_count < runs_staged_) {
    buf_.runs[0] = buf_.runs[flush_count];
    runs_staged_ -= flush_count;
  } else {
    runs_staged_ = 0;
  }
}

void PairWriter::write_back() {
  const std::uint64_t cycles = pool_cycles_now() - cycles_before_;
  result_.pool_cycles_lo = static_cast<std::uint32_t>(cycles);
  result_.pool_cycles_hi = static_cast<std::uint32_t>(cycles >> 32);
  result_.dma_bytes =
      static_cast<std::uint32_t>(pool_.dma_bytes() - dma_before_);
  // Stage the result in the run buffer and DMA it out. Result write-back is
  // pair bookkeeping → setup phase (dpu_cost.hpp).
  pool_.set_phase(upmem::Phase::kSetup);
  if (batch_.session()) {
    // Session rounds read back compact 16-byte records: score + status +
    // pool cycles, no CIGAR run count or per-pair DMA bytes.
    SessionResult compact{};
    compact.score = result_.score;
    compact.status = result_.status;
    compact.pool_cycles_lo = result_.pool_cycles_lo;
    compact.pool_cycles_hi = result_.pool_cycles_hi;
    std::memcpy(buf_.runs.data(), &compact, sizeof(SessionResult));
    ctx_.mram_write(buf_.addr,
                    batch_.header.result_off +
                        pair_index_ * sizeof(SessionResult),
                    sizeof(SessionResult));
    pool_.dma(sizeof(SessionResult));
    return;
  }
  std::memcpy(buf_.runs.data(), &result_, sizeof(PairResult));
  ctx_.mram_write(buf_.addr,
                  batch_.header.result_off + pair_index_ * sizeof(PairResult),
                  sizeof(PairResult));
  pool_.dma(sizeof(PairResult));
}

}  // namespace pimnw::core
