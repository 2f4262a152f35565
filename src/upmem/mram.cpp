#include "upmem/mram.hpp"

#include <algorithm>
#include <cstring>

#include "util/check.hpp"
#include "util/metrics.hpp"

namespace pimnw::upmem {

namespace {

// MRAM chunk lifecycle (DESIGN.md §17): how much simulated bank memory is
// live across all banks and how well the per-bank free lists recycle. Charged
// only at chunk-granular events (materialise/release), never per write.
struct MramSeries {
  metrics::Gauge& chunks_live;
  metrics::Counter& chunks_allocated;
  metrics::Counter& chunks_recycled;
  metrics::Counter& chunks_released;
};

MramSeries& mram_series() {
  auto& reg = metrics::MetricsRegistry::global();
  static MramSeries series{
      reg.gauge("pimnw_mram_chunks_live",
                "Materialised 64 KiB MRAM chunks across all banks"),
      reg.counter("pimnw_mram_chunks_allocated_total",
                  "Chunks materialised from fresh host allocations"),
      reg.counter("pimnw_mram_chunks_recycled_total",
                  "Chunks materialised by recycling a bank's free list"),
      reg.counter("pimnw_mram_chunks_released_total",
                  "Chunks released back to a bank's free list"),
  };
  return series;
}

}  // namespace

std::uint8_t* Mram::chunk_for_write(std::uint64_t index) {
  if (index >= chunks_.size()) chunks_.resize(index + 1);
  std::unique_ptr<std::uint8_t[]>& chunk = chunks_[index];
  if (chunk == nullptr) {
    const bool recycled = !free_list_.empty();
    if (recycled) {
      // Recycle: the page is already faulted in (first-touch locality — see
      // the header comment). Must be re-zeroed: reads of released chunks
      // promise zeros, and the recycled buffer holds stale bytes.
      chunk = std::move(free_list_.back());
      free_list_.pop_back();
      std::memset(chunk.get(), 0, kChunkBytes);
    } else {
      chunk = std::make_unique<std::uint8_t[]>(kChunkBytes);  // zero-filled
    }
    ++materialised_;
    MramSeries& series = mram_series();
    (recycled ? series.chunks_recycled : series.chunks_allocated).add(1);
    series.chunks_live.add(1.0);
  }
  return chunk.get();
}

void Mram::clear() {
  std::uint64_t released = 0;
  for (auto& chunk : chunks_) {
    if (chunk != nullptr) {
      free_list_.push_back(std::move(chunk));
      ++released;
    }
  }
  chunks_.clear();
  materialised_ = 0;
  if (released > 0) {
    MramSeries& series = mram_series();
    series.chunks_released.add(released);
    series.chunks_live.add(-static_cast<double>(released));
  }
}

void Mram::write(std::uint64_t addr, std::span<const std::uint8_t> bytes) {
  // Overflow-safe form: `addr + size <= capacity_` wraps for huge addr and
  // would accept out-of-bank accesses.
  PIMNW_CHECK_MSG(addr <= capacity_ && bytes.size() <= capacity_ - addr,
                  "MRAM write out of bank: addr=" << addr << " size="
                                                  << bytes.size());
  const std::uint8_t* src = bytes.data();
  std::uint64_t left = bytes.size();
  while (left > 0) {
    const std::uint64_t off = addr % kChunkBytes;
    const std::uint64_t n = std::min(left, kChunkBytes - off);
    std::memcpy(chunk_for_write(addr / kChunkBytes) + off, src, n);
    addr += n;
    src += n;
    left -= n;
  }
}

void Mram::read(std::uint64_t addr, std::span<std::uint8_t> out) const {
  PIMNW_CHECK_MSG(addr <= capacity_ && out.size() <= capacity_ - addr,
                  "MRAM read out of bank: addr=" << addr << " size="
                                                 << out.size());
  std::uint8_t* dst = out.data();
  std::uint64_t left = out.size();
  while (left > 0) {
    const std::uint64_t index = addr / kChunkBytes;
    const std::uint64_t off = addr % kChunkBytes;
    const std::uint64_t n = std::min(left, kChunkBytes - off);
    const std::uint8_t* chunk =
        index < chunks_.size() ? chunks_[index].get() : nullptr;
    if (chunk != nullptr) {
      std::memcpy(dst, chunk + off, n);
    } else {
      std::memset(dst, 0, n);
    }
    addr += n;
    dst += n;
    left -= n;
  }
}

std::uint64_t Mram::release_below(std::uint64_t offset) {
  const std::uint64_t limit = std::min<std::uint64_t>(
      chunks_.size(), offset / kChunkBytes);
  std::uint64_t released = 0;
  for (std::uint64_t i = 0; i < limit; ++i) {
    if (chunks_[i] != nullptr) {
      free_list_.push_back(std::move(chunks_[i]));
      ++released;
    }
  }
  materialised_ -= released;
  if (released > 0) {
    MramSeries& series = mram_series();
    series.chunks_released.add(released);
    series.chunks_live.add(-static_cast<double>(released));
  }
  return released;
}

void Mram::check_dma(std::uint64_t addr, std::uint64_t bytes) const {
  PIMNW_CHECK_MSG(addr % kDmaAlign == 0,
                  "DMA address " << addr << " not 8-byte aligned");
  PIMNW_CHECK_MSG(bytes % kDmaAlign == 0,
                  "DMA size " << bytes << " not a multiple of 8");
  PIMNW_CHECK_MSG(bytes >= kDmaMinBytes && bytes <= kDmaMaxBytes,
                  "DMA size " << bytes << " outside [8, 2048]");
  PIMNW_CHECK_MSG(addr <= capacity_ && bytes <= capacity_ - addr,
                  "DMA transfer out of bank: addr=" << addr << " size="
                                                    << bytes);
}

Mram::RowCursor Mram::row_cursor(std::uint64_t base, std::uint64_t row_bytes,
                                 std::uint64_t rows) {
  PIMNW_CHECK_MSG(base % kDmaAlign == 0,
                  "DMA address " << base << " not 8-byte aligned");
  PIMNW_CHECK_MSG(row_bytes % kDmaAlign == 0 && row_bytes >= kDmaMinBytes,
                  "DMA row of " << row_bytes
                                << " bytes is not a chain of [8, 2048]-byte"
                                   " transfers of multiples of 8");
  PIMNW_CHECK_MSG(base <= capacity_ && rows <= (capacity_ - base) / row_bytes,
                  "DMA rows out of bank: addr=" << base << " rows=" << rows
                                                << " x " << row_bytes);
  return RowCursor(*this, base, row_bytes, rows);
}

std::span<std::uint8_t> Mram::RowCursor::rows_from(std::uint64_t r) {
  PIMNW_CHECK_MSG(r < rows_, "row " << r << " outside a cursor of " << rows_);
  const std::uint64_t addr = base_ + r * row_bytes_;
  const std::uint64_t off = addr % kChunkBytes;
  const std::uint64_t whole =
      std::min((kChunkBytes - off) / row_bytes_, rows_ - r);
  if (whole == 0) return {};
  return {mram_->chunk_for_write(addr / kChunkBytes) + off, whole * row_bytes_};
}

}  // namespace pimnw::upmem
