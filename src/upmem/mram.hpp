// Simulated 64 MB MRAM bank.
//
// Storage is chunk-sparse: only 64 KB chunks that have actually been written
// are materialised, so a write at a high offset (e.g. the 32 MB broadcast
// pool base) does not zero-fill everything below it. A full 40-rank system
// would otherwise pin 160 GB; with sparse chunks the resident set tracks the
// bytes the simulation really touches.
//
// Released chunks (clear(), release_below()) go to a per-bank free list and
// are recycled by the next write instead of returned to the allocator. In
// the parallel simulator each worker arena owns one bank and reuses it for
// every DPU image that worker executes, so after the first round the bank's
// chunk pages are already faulted in on — and, on a NUMA machine with
// first-touch policy, resident near — the core that keeps filling them;
// recycling keeps that locality instead of bouncing pages through the
// allocator (DESIGN.md §15). Recycled chunks are re-zeroed before reuse:
// reads of released-then-unwritten ranges must yield zeros exactly like
// never-written ones. That holds for the row cursor too: a writer that
// covers every byte of its rows would not need the zeros, but the same
// chunk may also back bytes nobody rewrites before they are read.
//
// A row cursor (row_cursor()) lets a DPU kernel that streams equally sized
// rows to the bank, one DMA chain per row (the BT rows of §4.2.2), write
// its rows in place: it checks the whole region once, with check_dma's
// rules, and then rows_from() hands out every whole row left in a row's
// chunk at once, for a writer that fills consecutive rows in one pass. The
// modeled DMA is still charged by the kernel, row by row.
//
// Every access is bounds-checked
// against the architectural 64 MB, and DMA-shaped accesses additionally
// enforce the engine's size/alignment rules. The host-side SDK facade and
// the DPU-side DMA both funnel through this class, so an out-of-bank
// address is caught identically on either side.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "upmem/arch.hpp"

namespace pimnw::upmem {

class Mram {
 public:
  explicit Mram(std::uint64_t capacity = kMramBytes) : capacity_(capacity) {}

  std::uint64_t capacity() const { return capacity_; }

  /// Bytes actually materialised by the simulation (chunk granularity).
  std::uint64_t footprint() const { return materialised_ * kChunkBytes; }

  /// Raw byte copy in/out (host transfers — no DMA shape constraints, the
  /// host accesses MRAM through the DDR bus). Reads of never-written chunks
  /// yield zeros without materialising them.
  void write(std::uint64_t addr, std::span<const std::uint8_t> bytes);
  void read(std::uint64_t addr, std::span<std::uint8_t> out) const;

  /// Validate a DPU DMA transfer shape: 8-byte aligned address, size in
  /// [8, 2048] and a multiple of 8, and fully inside the bank. Throws
  /// CheckError otherwise. (The real engine silently corrupts on misuse;
  /// the simulator makes misuse loud.)
  void check_dma(std::uint64_t addr, std::uint64_t bytes) const;

  /// Writable rows of a region row_cursor() checked.
  class RowCursor {
   public:
    /// Rows r, r + 1, ... in place, as one span: every whole row of the
    /// cursor left in row `r`'s chunk (materialised as write() would), or an
    /// empty span when row `r` straddles a chunk boundary: the caller then
    /// stages that row and writes it with write().
    std::span<std::uint8_t> rows_from(std::uint64_t r);

   private:
    friend class Mram;
    RowCursor(Mram& mram, std::uint64_t base, std::uint64_t row_bytes,
              std::uint64_t rows)
        : mram_(&mram), base_(base), row_bytes_(row_bytes), rows_(rows) {}

    Mram* mram_;
    std::uint64_t base_;
    std::uint64_t row_bytes_;
    std::uint64_t rows_;
  };

  /// A cursor over `rows` rows of `row_bytes` bytes from `base`, each row
  /// written as a chain of DMA transfers of at most 2048 bytes. One check
  /// covers every transfer of every row with check_dma's rules: an 8-byte
  /// aligned base and row size (so each transfer is a multiple of 8 in
  /// [8, 2048]) and the whole region inside the bank. Throws CheckError
  /// otherwise.
  RowCursor row_cursor(std::uint64_t base, std::uint64_t row_bytes,
                       std::uint64_t rows);

  /// Zero the bank (between unrelated launches in tests). Materialised
  /// chunks move to the free list for recycling rather than being freed.
  void clear();

  /// Session reset (DESIGN.md §13): drop every materialised chunk that lies
  /// entirely below `offset` — the per-round scratch of a persistent-
  /// database session — while chunks at or above `offset` (the resident
  /// database) stay untouched. Returns the number of chunks released.
  /// Subsequent reads of released chunks yield zeros, as for never-written
  /// ones.
  std::uint64_t release_below(std::uint64_t offset);

  /// Chunks sitting in the free list, awaiting reuse (observability/tests).
  std::uint64_t free_chunks() const { return free_list_.size(); }

 private:
  static constexpr std::uint64_t kChunkBytes = 64ull * 1024;

  std::uint8_t* chunk_for_write(std::uint64_t index);

  std::uint64_t capacity_;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::vector<std::unique_ptr<std::uint8_t[]>> free_list_;
  std::uint64_t materialised_ = 0;
};

}  // namespace pimnw::upmem
