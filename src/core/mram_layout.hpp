// MRAM batch layout shared by the host serializer and the DPU kernel.
//
// Per-DPU MRAM image (offsets 8-byte aligned):
//
//   [ BatchHeader ]
//   [ SeqEntry  x nr_seqs  ]   sequence table
//   [ PairEntry x nr_pairs ]   work list (descriptor per alignment)
//   [ sequence pool ]          2-bit packed bases
//   [ PairResult x nr_pairs ]  written by the DPU, read back by the host
//   [ cigar area ]             reversed run-length CIGARs, per-pair slots
//   [ BT scratch x pools ]     traceback scratch, reused across pairs
//
// The host writes everything up to the results region in one transfer; the
// results + cigar regions come back in one transfer. BT scratch is
// DPU-private and never crosses the bus — exactly the traffic pattern the
// paper's host program produces.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/params.hpp"
#include "core/pim_kernel.hpp"
#include "dna/cigar.hpp"

namespace pimnw::core {

inline constexpr std::uint64_t kBatchMagic = 0x50494D4E5744424CULL;

/// Round up to the 8-byte granularity of MRAM offsets and DMA transfers.
inline constexpr std::uint64_t align8(std::uint64_t v) {
  return (v + 7) & ~std::uint64_t{7};
}

/// MRAM offset where a broadcast sequence pool (a session's resident
/// database) lives: the upper half of the bank; per-DPU round images occupy
/// the lower half.
inline constexpr std::uint64_t kBroadcastPoolOffset = 32ull * 1024 * 1024;

struct BatchHeader {
  std::uint64_t magic;
  std::uint32_t nr_seqs;
  std::uint32_t nr_pairs;
  std::int32_t band_width;
  std::uint32_t flags;  // bit 0: traceback
  std::int32_t match;
  std::int32_t mismatch;
  std::int32_t gap_open;
  std::int32_t gap_extend;
  std::uint64_t seq_table_off;
  std::uint64_t pair_table_off;
  std::uint64_t result_off;
  std::uint64_t cigar_off;
  std::uint64_t bt_scratch_off;
  std::uint64_t bt_scratch_stride;  // bytes per pool
  std::uint64_t total_bytes;
};
static_assert(sizeof(BatchHeader) == 96);

inline constexpr std::uint32_t kFlagTraceback = 1u;
/// Session mode (DESIGN.md §13): the sequence table is resident in the
/// broadcast region, the pair table holds compact SessionPairEntry records
/// and the results region holds compact SessionResult records. Mutually
/// exclusive with kFlagTraceback — sessions are score-only. This bit is
/// owned by the layout layer; every other flag bit belongs to the kernel
/// (PimKernel::batch_flags, DESIGN.md §16).
inline constexpr std::uint32_t kFlagSession = 2u;
/// The batch runs the wavefront kernel (core/wfa_kernel.hpp) instead of
/// banded NW. Emitted by WfaKernel::batch_flags; NW batches never set it,
/// so their header bytes are untouched by the kernel abstraction.
inline constexpr std::uint32_t kFlagWfa = 4u;

struct SeqEntry {
  std::uint64_t data_off;  // absolute MRAM offset of the packed bases
  std::uint32_t length;    // in bases
  std::uint32_t pad = 0;
};
static_assert(sizeof(SeqEntry) == 16);

struct PairEntry {
  std::uint32_t seq_a;      // index into the sequence table
  std::uint32_t seq_b;
  std::uint32_t global_id;  // the host's pair identifier
  std::uint32_t cigar_cap;  // capacity of this pair's cigar slot, in runs
  std::uint64_t cigar_off;  // absolute MRAM offset of the slot
};
static_assert(sizeof(PairEntry) == 24);

/// Result status codes.
inline constexpr std::uint32_t kStatusOk = 0;
inline constexpr std::uint32_t kStatusUnreachable = 1;  // band missed (m,n)
inline constexpr std::uint32_t kStatusCigarOverflow = 2;

struct PairResult {
  std::int32_t score;
  std::uint32_t status;
  std::uint32_t cigar_runs;  // number of runs written (reversed order)
  /// Pool-critical-path cycles this pair cost its pool (measured by the
  /// kernel's cost accounting; feeds the scale-out projection, see
  /// core/projection.hpp).
  std::uint32_t pool_cycles_lo;
  std::uint32_t pool_cycles_hi;
  /// MRAM<->WRAM DMA bytes this pair moved inside the DPU.
  std::uint32_t dma_bytes;
};
static_assert(sizeof(PairResult) == 24);

/// Session-mode work descriptor: only the two database indices cross the bus
/// per alignment (kFlagSession). The pair's identity is its table position;
/// there is no CIGAR slot (sessions are score-only).
struct SessionPairEntry {
  std::uint32_t seq_a;  // index into the resident database table
  std::uint32_t seq_b;
};
static_assert(sizeof(SessionPairEntry) == 8);

/// Session-mode result: score plus the pool cycles the projection needs
/// (core/projection.hpp). No CIGAR run count, no per-pair DMA bytes — a
/// third of the PairResult readback.
struct SessionResult {
  std::int32_t score;
  std::uint32_t status;
  std::uint32_t pool_cycles_lo;
  std::uint32_t pool_cycles_hi;
};
static_assert(sizeof(SessionResult) == 16);

/// CIGAR run encoding in MRAM: op in the top 2 bits, length below.
inline constexpr std::uint32_t kCigarLenBits = 30;
std::uint32_t encode_cigar_run(dna::CigarOp op, std::uint32_t len);
dna::CigarOp decode_cigar_op(std::uint32_t run);
std::uint32_t decode_cigar_len(std::uint32_t run);

/// A packed pool of sequences with an offset table — either per-DPU-batch
/// (pairwise mode) or global (a session's broadcast database).
class SeqPool {
 public:
  /// Pack `seqs` (ASCII, ACGT only) back to back, 8-byte aligning each.
  static SeqPool build(std::span<const std::string_view> seqs);

  std::uint32_t size() const { return static_cast<std::uint32_t>(entries_.size()); }
  std::span<const std::uint8_t> bytes() const { return data_; }

  struct Entry {
    std::uint64_t offset;  // pool-relative
    std::uint32_t length;  // bases
  };
  const Entry& entry(std::uint32_t i) const;

 private:
  std::vector<std::uint8_t> data_;
  std::vector<Entry> entries_;
};

/// Host-side description of the work for one DPU.
struct DpuBatchInput {
  struct Pair {
    std::uint32_t seq_a;
    std::uint32_t seq_b;
    std::uint32_t global_id;
  };
  std::vector<Pair> pairs;
};

/// Serialized image plus the addresses the host needs afterwards.
struct MramImage {
  std::vector<std::uint8_t> bytes;   // write at MRAM offset 0
  std::uint64_t result_off = 0;      // results region start
  std::uint64_t readback_bytes = 0;  // results + cigar regions, contiguous
  std::uint64_t total_bytes = 0;     // full footprint incl. BT scratch
};

/// Build the image for one DPU.
///
/// `pool` provides the sequences; its bytes are appended to the image.
/// `kernel` supplies the algorithm-specific numbers: the flag word and the
/// per-pool scratch stride (max over the batch's pairs). Each pair's CIGAR
/// slot holds m + n + 2 runs with traceback on (every alignment column its
/// own run), none without. Throws CheckError if the footprint exceeds the
/// 64 MB bank.
MramImage build_mram_image(const DpuBatchInput& batch, const SeqPool& pool,
                           const PimKernel& kernel, const AlignConfig& config,
                           const PoolConfig& pools);

/// Worst-case MRAM footprint of a batch holding only the pair (len_a,
/// len_b) with both sequences inline — the admission check for a single
/// oversized pair. Mirrors build_mram_image's layout arithmetic exactly
/// (mram_layout_test pins the equality); a pair whose lone-pair footprint
/// exceeds upmem::kMramBytes cannot be aligned by any batch composition,
/// so callers reject it per-pair (PairStatus::kOversized) instead of dying
/// on build_mram_image's batch-level check.
std::uint64_t single_pair_image_bytes(std::uint64_t len_a,
                                      std::uint64_t len_b,
                                      const PimKernel& kernel,
                                      const AlignConfig& config,
                                      const PoolConfig& pools);

/// Decode one pair's CIGAR from its (reversed) run slot.
dna::Cigar decode_cigar(std::span<const std::uint32_t> reversed_runs);

/// Session database image (DESIGN.md §13): broadcast once to every DPU at
/// `db_mram_offset` and kept resident across rounds. Layout:
///
///   [ SeqEntry x pool.size() ]   offsets absolute (into the pool below)
///   [ sequence pool ]            2-bit packed bases
///
/// Returns the raw bytes; the caller broadcasts them via
/// ExecEngine::set_broadcast.
std::vector<std::uint8_t> build_session_db_image(const SeqPool& pool,
                                                 std::uint64_t db_mram_offset);

/// One session round's per-DPU image: a kFlagSession header pointing its
/// seq_table_off at the resident database, a compact SessionPairEntry work
/// list, and a SessionResult region the DPU fills in. No CIGAR slots.
/// `scratch_stride` is the per-pool MRAM scratch the kernel needs per round
/// (0 for NW score-only; the WFA kernel keeps its wavefront ring there) —
/// the caller computes it via PimKernel::pair_scratch_bytes because the
/// round image itself never sees sequence lengths. Throws CheckError if the
/// round image (incl. scratch) would collide with `db_mram_offset`.
MramImage build_session_round_image(const DpuBatchInput& batch,
                                    const PimKernel& kernel,
                                    const AlignConfig& config,
                                    const PoolConfig& pools,
                                    std::uint64_t db_mram_offset,
                                    std::uint32_t db_nr_seqs,
                                    std::uint64_t scratch_stride);

}  // namespace pimnw::core
