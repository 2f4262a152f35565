#include "upmem/mram.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace pimnw::upmem {
namespace {

TEST(MramTest, WriteReadRoundTrip) {
  Mram mram;
  std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  mram.write(100, data);
  std::vector<std::uint8_t> back(5);
  mram.read(100, back);
  EXPECT_EQ(back, data);
}

TEST(MramTest, UnwrittenBytesReadZero) {
  Mram mram;
  std::vector<std::uint8_t> back(8, 0xAA);
  mram.read(1024, back);
  for (auto byte : back) EXPECT_EQ(byte, 0);
}

TEST(MramTest, CapacityIs64MB) {
  Mram mram;
  EXPECT_EQ(mram.capacity(), 64ull * 1024 * 1024);
}

TEST(MramTest, WriteBeyondBankThrows) {
  Mram mram;
  std::vector<std::uint8_t> data(16);
  EXPECT_THROW(mram.write(mram.capacity() - 8, data), CheckError);
  EXPECT_NO_THROW(mram.write(mram.capacity() - 16, data));
}

TEST(MramTest, ReadBeyondBankThrows) {
  Mram mram;
  std::vector<std::uint8_t> out(16);
  EXPECT_THROW(mram.read(mram.capacity() - 8, out), CheckError);
}

TEST(MramTest, FootprintGrowsLazily) {
  Mram mram;
  EXPECT_EQ(mram.footprint(), 0u);
  std::vector<std::uint8_t> data(8);
  mram.write(0, data);
  EXPECT_GT(mram.footprint(), 0u);
  EXPECT_LT(mram.footprint(), 4ull * 1024 * 1024)
      << "a small write must not materialise the whole bank";
}

TEST(MramTest, DmaRulesEnforced) {
  Mram mram;
  EXPECT_NO_THROW(mram.check_dma(0, 8));
  EXPECT_NO_THROW(mram.check_dma(64, 2048));
  // Misaligned address.
  EXPECT_THROW(mram.check_dma(4, 8), CheckError);
  // Size not a multiple of 8.
  EXPECT_THROW(mram.check_dma(0, 12), CheckError);
  // Size out of the 8..2048 window.
  EXPECT_THROW(mram.check_dma(0, 0), CheckError);
  EXPECT_THROW(mram.check_dma(0, 2056), CheckError);
  // Out of bank.
  EXPECT_THROW(mram.check_dma(mram.capacity() - 8, 16), CheckError);
}

TEST(MramTest, HugeAddressDoesNotWrapBoundsCheck) {
  // Regression: the bounds check used to compute addr + size, which wraps
  // for addresses near UINT64_MAX and let a "negative" window pass as
  // in-bank. The overflow-safe form (addr <= cap && size <= cap - addr)
  // must reject these.
  Mram mram;
  std::vector<std::uint8_t> data(16);
  const std::uint64_t huge = ~std::uint64_t{0} - 8;  // addr + 16 wraps to 7
  EXPECT_THROW(mram.write(huge, data), CheckError);
  EXPECT_THROW(mram.read(huge, data), CheckError);
  EXPECT_THROW(mram.write(~std::uint64_t{0}, data), CheckError);
  // DMA check: 8-aligned huge address, wrapping size window.
  EXPECT_THROW(mram.check_dma(~std::uint64_t{0} - 7, 16), CheckError);
  // Zero-length write at an out-of-bank address is still out of bank.
  std::vector<std::uint8_t> empty;
  EXPECT_THROW(mram.write(mram.capacity() + 1, empty), CheckError);
}

TEST(MramTest, ZeroLengthHostAccessOk) {
  Mram mram;
  std::vector<std::uint8_t> empty;
  EXPECT_NO_THROW(mram.write(0, empty));
  EXPECT_NO_THROW(mram.read(0, std::span<std::uint8_t>{}));
}

TEST(MramTest, ReleaseBelowDropsOnlyWholeChunksBelowOffset) {
  // Session reset (DESIGN.md §13): chunks entirely below the resident
  // offset are dropped and read back as zero; chunks at/above it survive.
  Mram mram;
  const std::uint64_t chunk = 64 * 1024;  // kChunkBytes
  std::vector<std::uint8_t> data(16, 0xAB);
  mram.write(0, data);              // chunk 0 (scratch)
  mram.write(chunk, data);          // chunk 1 (scratch)
  mram.write(4 * chunk, data);      // chunk 4 (resident)
  EXPECT_EQ(mram.footprint(), 3 * chunk);

  // A straddling offset only frees chunks wholly below it.
  EXPECT_EQ(mram.release_below(chunk + 8), 1u);
  EXPECT_EQ(mram.footprint(), 2 * chunk);

  EXPECT_EQ(mram.release_below(4 * chunk), 1u);
  EXPECT_EQ(mram.footprint(), chunk);

  std::vector<std::uint8_t> readback(16);
  mram.read(chunk, readback);  // released chunk reads zero again
  EXPECT_EQ(readback, std::vector<std::uint8_t>(16, 0));
  mram.read(4 * chunk, readback);  // resident chunk unchanged
  EXPECT_EQ(readback, data);

  // Idempotent: nothing left below the offset.
  EXPECT_EQ(mram.release_below(4 * chunk), 0u);
}

TEST(MramTest, ReleasedChunksAreRecycledAndZeroed) {
  // Chunk recycling (DESIGN.md §15): released chunks park on a free list
  // and the next materialising write reuses them — the page stays faulted
  // in near the worker that keeps filling this bank — but a recycled chunk
  // must read as zeros outside the newly written range, exactly like a
  // fresh one.
  Mram mram;
  const std::uint64_t chunk = 64 * 1024;  // kChunkBytes
  std::vector<std::uint8_t> dirty(chunk, 0xEE);
  mram.write(0, dirty);
  mram.write(chunk, dirty);
  EXPECT_EQ(mram.free_chunks(), 0u);

  EXPECT_EQ(mram.release_below(2 * chunk), 2u);
  EXPECT_EQ(mram.free_chunks(), 2u);
  EXPECT_EQ(mram.footprint(), 0u);

  // A one-byte write rematerialises from the free list, not the allocator.
  std::vector<std::uint8_t> one = {0x42};
  mram.write(5 * chunk, one);
  EXPECT_EQ(mram.free_chunks(), 1u);
  EXPECT_EQ(mram.footprint(), chunk);

  // Everything around the written byte is zero again despite the chunk
  // having been 0xEE throughout its previous life.
  std::vector<std::uint8_t> back(chunk);
  mram.read(5 * chunk, back);
  EXPECT_EQ(back[0], 0x42);
  for (std::uint64_t i = 1; i < chunk; ++i) {
    ASSERT_EQ(back[i], 0) << "stale byte at " << i;
  }
}

TEST(MramTest, ClearMovesChunksToFreeList) {
  Mram mram;
  const std::uint64_t chunk = 64 * 1024;
  std::vector<std::uint8_t> data(16, 0xCD);
  mram.write(0, data);
  mram.write(3 * chunk, data);
  mram.clear();
  EXPECT_EQ(mram.footprint(), 0u);
  EXPECT_EQ(mram.free_chunks(), 2u);
  std::vector<std::uint8_t> back(16, 0xFF);
  mram.read(0, back);
  EXPECT_EQ(back, std::vector<std::uint8_t>(16, 0));
  mram.write(0, data);  // recycles one
  EXPECT_EQ(mram.free_chunks(), 1u);
}

TEST(MramTest, RowCursorChecksTheWholeRegionOnce) {
  // The cursor rejects every region the per-row check_dma calls of its rows'
  // DMA chains would reject.
  Mram mram;
  EXPECT_THROW(mram.row_cursor(4, 64, 10), CheckError);   // misaligned base
  EXPECT_THROW(mram.row_cursor(0, 60, 10), CheckError);   // row not 8-aligned
  EXPECT_THROW(mram.row_cursor(0, 0, 10), CheckError);    // no transfer
  // Past the bank end, by one row and by a row count that would wrap.
  EXPECT_THROW(mram.row_cursor(mram.capacity() - 128, 64, 3), CheckError);
  EXPECT_THROW(mram.row_cursor(64, 64, ~std::uint64_t{0} / 32), CheckError);
  EXPECT_THROW(mram.row_cursor(mram.capacity() + 8, 64, 0), CheckError);
  EXPECT_NO_THROW(mram.row_cursor(mram.capacity() - 128, 64, 2));
  // Rows wider than one DMA are chains of transfers, and accepted.
  EXPECT_NO_THROW(mram.row_cursor(0, 4096 + 64, 3));
  // Nothing materialises until a row is asked for.
  EXPECT_EQ(mram.footprint(), 0u);
}

TEST(MramTest, RowsFromStopsAtChunkEnd) {
  Mram mram;
  const std::uint64_t chunk = 64 * 1024;  // kChunkBytes
  // Rows of 48 bytes from 40 bytes below chunk 3: row 0 straddles its
  // start, rows 1 .. 1365 lie whole in chunk 3 (8 + 1365 * 48 = 65528) and
  // row 1366 straddles its end.
  const std::uint64_t rows = 2000;
  Mram::RowCursor cursor = mram.row_cursor(3 * chunk - 40, 48, rows);
  EXPECT_TRUE(cursor.rows_from(0).empty());
  EXPECT_TRUE(cursor.rows_from(1366).empty());
  EXPECT_EQ(mram.footprint(), 0u);
  EXPECT_THROW(cursor.rows_from(rows), CheckError);

  // From row 1: every whole row left in chunk 3, in place in the chunk.
  const std::span<std::uint8_t> from1 = cursor.rows_from(1);
  ASSERT_EQ(from1.size(), 1365u * 48);
  EXPECT_EQ(mram.footprint(), chunk);  // the rows' chunk, materialised
  EXPECT_EQ(cursor.rows_from(1000).size(), 366u * 48);
  EXPECT_EQ(cursor.rows_from(1365).size(), 48u);
  EXPECT_EQ(cursor.rows_from(1).data(), from1.data());
  for (std::size_t i = 0; i < from1.size(); ++i) {
    from1[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  std::vector<std::uint8_t> back(from1.size());
  mram.read(3 * chunk + 8, back);
  for (std::size_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back[i], static_cast<std::uint8_t>(i * 7 + 1)) << "byte " << i;
  }

  // In chunk 4, from its first whole row: the view stops at the cursor's
  // last row when that comes before the chunk end.
  Mram::RowCursor tail = mram.row_cursor(4 * chunk, 64, 10);
  EXPECT_EQ(tail.rows_from(3).size(), 7u * 64);
  EXPECT_EQ(mram.footprint(), 2 * chunk);
}

}  // namespace
}  // namespace pimnw::upmem
