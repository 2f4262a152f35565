#include "core/mram_layout.hpp"

#include <cstring>

#include "dna/packed_sequence.hpp"
#include "util/check.hpp"

namespace pimnw::core {
namespace {

/// Capacity, in runs, of a pair's CIGAR slot: runs merge adjacent equal
/// ops, so the worst case is every alignment column its own run.
std::uint32_t pair_cigar_cap(std::uint64_t len_a, std::uint64_t len_b,
                             const AlignConfig& config) {
  return config.traceback ? static_cast<std::uint32_t>(len_a + len_b + 2) : 0;
}

}  // namespace

std::uint32_t encode_cigar_run(dna::CigarOp op, std::uint32_t len) {
  PIMNW_DCHECK(len < (1u << kCigarLenBits));
  return (static_cast<std::uint32_t>(op) << kCigarLenBits) | len;
}

dna::CigarOp decode_cigar_op(std::uint32_t run) {
  return static_cast<dna::CigarOp>(run >> kCigarLenBits);
}

std::uint32_t decode_cigar_len(std::uint32_t run) {
  return run & ((1u << kCigarLenBits) - 1);
}

SeqPool SeqPool::build(std::span<const std::string_view> seqs) {
  SeqPool pool;
  pool.entries_.reserve(seqs.size());
  std::uint64_t off = 0;
  for (const std::string_view seq : seqs) {
    off = align8(off);
    pool.entries_.push_back(
        {off, static_cast<std::uint32_t>(seq.size())});
    off += dna::PackedSequence::bytes_for(seq.size());
  }
  pool.data_.assign(align8(off), 0);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    const dna::PackedSequence packed = dna::PackedSequence::pack(seqs[i]);
    std::memcpy(pool.data_.data() + pool.entries_[i].offset,
                packed.bytes().data(), packed.bytes().size());
  }
  return pool;
}

const SeqPool::Entry& SeqPool::entry(std::uint32_t i) const {
  PIMNW_CHECK_MSG(i < entries_.size(), "sequence index " << i
                                                         << " out of pool");
  return entries_[i];
}

MramImage build_mram_image(const DpuBatchInput& batch, const SeqPool& pool,
                           const PimKernel& kernel, const AlignConfig& config,
                           const PoolConfig& pools) {
  const std::uint32_t nr_pairs = static_cast<std::uint32_t>(batch.pairs.size());
  const std::uint32_t nr_seqs = pool.size();

  BatchHeader header{};
  header.magic = kBatchMagic;
  header.nr_seqs = nr_seqs;
  header.nr_pairs = nr_pairs;
  header.band_width = static_cast<std::int32_t>(config.band_width);
  header.flags = kernel.batch_flags(config);
  header.match = config.scoring.match;
  header.mismatch = config.scoring.mismatch;
  header.gap_open = config.scoring.gap_open;
  header.gap_extend = config.scoring.gap_extend;

  header.seq_table_off = sizeof(BatchHeader);
  header.pair_table_off =
      align8(header.seq_table_off + nr_seqs * sizeof(SeqEntry));
  std::uint64_t cursor =
      align8(header.pair_table_off + nr_pairs * sizeof(PairEntry));

  // Sequence pool, inline after the work list.
  const std::uint64_t seq_base = cursor;
  cursor = align8(cursor + pool.bytes().size());

  header.result_off = cursor;
  cursor += static_cast<std::uint64_t>(nr_pairs) * sizeof(PairResult);

  // CIGAR slots and the per-pool scratch stride: the kernel's per-pair
  // need, max over the batch (pair_scratch_bytes is monotone in each
  // length, so the max is the honest worst case — the PimKernel contract).
  header.cigar_off = cursor;
  std::vector<std::uint64_t> cigar_offs(nr_pairs);
  std::vector<std::uint32_t> cigar_caps(nr_pairs);
  std::uint64_t scratch_stride = 0;
  for (std::uint32_t p = 0; p < nr_pairs; ++p) {
    const auto& pr = batch.pairs[p];
    const std::uint64_t m = pool.entry(pr.seq_a).length;
    const std::uint64_t n = pool.entry(pr.seq_b).length;
    scratch_stride =
        std::max(scratch_stride, kernel.pair_scratch_bytes(m, n, config));
    const std::uint32_t cap = pair_cigar_cap(m, n, config);
    cigar_offs[p] = cursor;
    cigar_caps[p] = cap;
    cursor = align8(cursor + static_cast<std::uint64_t>(cap) * 4);
  }
  const std::uint64_t readback_end = cursor;

  // Kernel scratch: one slice per pool, reused across the pool's pairs
  // (BT rows for NW, retained wavefronts for WFA).
  header.bt_scratch_off = cursor;
  header.bt_scratch_stride = scratch_stride;
  cursor += header.bt_scratch_stride * static_cast<std::uint64_t>(pools.pools);
  header.total_bytes = cursor;

  PIMNW_CHECK_MSG(cursor <= upmem::kMramBytes,
                  "DPU batch needs " << cursor << " bytes of MRAM (64 MB "
                                        "bank); shrink the batch");

  // Serialize everything up to (and including) the sequence pool.
  MramImage image;
  image.bytes.assign(header.result_off, 0);
  std::memcpy(image.bytes.data(), &header, sizeof(header));

  for (std::uint32_t s = 0; s < nr_seqs; ++s) {
    SeqEntry entry{};
    entry.data_off = seq_base + pool.entry(s).offset;
    entry.length = pool.entry(s).length;
    std::memcpy(image.bytes.data() + header.seq_table_off +
                    s * sizeof(SeqEntry),
                &entry, sizeof(entry));
  }
  for (std::uint32_t p = 0; p < nr_pairs; ++p) {
    const auto& pr = batch.pairs[p];
    PIMNW_CHECK_MSG(pr.seq_a < nr_seqs && pr.seq_b < nr_seqs,
                    "pair " << p << " references sequences out of the pool");
    PairEntry entry{};
    entry.seq_a = pr.seq_a;
    entry.seq_b = pr.seq_b;
    entry.global_id = pr.global_id;
    entry.cigar_cap = cigar_caps[p];
    entry.cigar_off = cigar_offs[p];
    std::memcpy(image.bytes.data() + header.pair_table_off +
                    p * sizeof(PairEntry),
                &entry, sizeof(entry));
  }
  if (!pool.bytes().empty()) {
    std::memcpy(image.bytes.data() + seq_base, pool.bytes().data(),
                pool.bytes().size());
  }

  image.result_off = header.result_off;
  image.readback_bytes = readback_end - header.result_off;
  image.total_bytes = cursor;
  return image;
}

std::uint64_t single_pair_image_bytes(std::uint64_t len_a,
                                      std::uint64_t len_b,
                                      const PimKernel& kernel,
                                      const AlignConfig& config,
                                      const PoolConfig& pools) {
  const std::uint64_t seq_table_off = sizeof(BatchHeader);
  const std::uint64_t pair_table_off =
      align8(seq_table_off + 2 * sizeof(SeqEntry));
  std::uint64_t cursor = align8(pair_table_off + sizeof(PairEntry));
  // Inline pool: the two packed sequences back to back, each 8-byte aligned,
  // exactly as SeqPool::build lays them out (a == b dedups to one entry in
  // the real image; counting both keeps this a worst-case bound).
  std::uint64_t pool_bytes = align8(dna::PackedSequence::bytes_for(len_a));
  pool_bytes = align8(pool_bytes + dna::PackedSequence::bytes_for(len_b));
  cursor = align8(cursor + pool_bytes);
  cursor += sizeof(PairResult);
  const std::uint64_t cap = pair_cigar_cap(len_a, len_b, config);
  cursor = align8(cursor + cap * 4);
  cursor += kernel.pair_scratch_bytes(len_a, len_b, config) *
            static_cast<std::uint64_t>(pools.pools);
  return cursor;
}

std::vector<std::uint8_t> build_session_db_image(const SeqPool& pool,
                                                 std::uint64_t db_mram_offset) {
  const std::uint32_t nr_seqs = pool.size();
  const std::uint64_t table_bytes =
      align8(static_cast<std::uint64_t>(nr_seqs) * sizeof(SeqEntry));
  const std::uint64_t pool_base = db_mram_offset + table_bytes;
  PIMNW_CHECK_MSG(pool_base + pool.bytes().size() <= upmem::kMramBytes,
                  "session database (" << table_bytes + pool.bytes().size()
                                       << " bytes at " << db_mram_offset
                                       << ") overflows the 64 MB bank");

  std::vector<std::uint8_t> bytes(align8(table_bytes + pool.bytes().size()), 0);
  for (std::uint32_t s = 0; s < nr_seqs; ++s) {
    SeqEntry entry{};
    entry.data_off = pool_base + pool.entry(s).offset;
    entry.length = pool.entry(s).length;
    std::memcpy(bytes.data() + s * sizeof(SeqEntry), &entry, sizeof(entry));
  }
  if (!pool.bytes().empty()) {
    std::memcpy(bytes.data() + table_bytes, pool.bytes().data(),
                pool.bytes().size());
  }
  return bytes;
}

MramImage build_session_round_image(const DpuBatchInput& batch,
                                    const PimKernel& kernel,
                                    const AlignConfig& config,
                                    const PoolConfig& pools,
                                    std::uint64_t db_mram_offset,
                                    std::uint32_t db_nr_seqs,
                                    std::uint64_t scratch_stride) {
  PIMNW_CHECK_MSG(!config.traceback,
                  "session rounds are score-only; traceback requires the "
                  "per-batch path");
  const std::uint32_t nr_pairs = static_cast<std::uint32_t>(batch.pairs.size());

  BatchHeader header{};
  header.magic = kBatchMagic;
  header.nr_seqs = db_nr_seqs;
  header.nr_pairs = nr_pairs;
  header.band_width = static_cast<std::int32_t>(config.band_width);
  header.flags = kernel.batch_flags(config) | kFlagSession;
  header.match = config.scoring.match;
  header.mismatch = config.scoring.mismatch;
  header.gap_open = config.scoring.gap_open;
  header.gap_extend = config.scoring.gap_extend;

  // The sequence table lives in the resident database region, not the round
  // image; the kernel only needs its absolute offset.
  header.seq_table_off = db_mram_offset;
  header.pair_table_off = align8(sizeof(BatchHeader));
  header.result_off = align8(header.pair_table_off +
                             static_cast<std::uint64_t>(nr_pairs) *
                                 sizeof(SessionPairEntry));
  const std::uint64_t readback_end =
      header.result_off +
      static_cast<std::uint64_t>(nr_pairs) * sizeof(SessionResult);
  header.cigar_off = readback_end;
  header.bt_scratch_off = readback_end;
  header.bt_scratch_stride = scratch_stride;
  header.total_bytes =
      readback_end + scratch_stride * static_cast<std::uint64_t>(pools.pools);

  PIMNW_CHECK_MSG(header.total_bytes <= db_mram_offset,
                  "session round image ("
                      << header.total_bytes
                      << " bytes) collides with the resident database at "
                      << db_mram_offset);

  MramImage image;
  image.bytes.assign(header.result_off, 0);
  std::memcpy(image.bytes.data(), &header, sizeof(header));
  for (std::uint32_t p = 0; p < nr_pairs; ++p) {
    const auto& pr = batch.pairs[p];
    PIMNW_CHECK_MSG(pr.seq_a < db_nr_seqs && pr.seq_b < db_nr_seqs,
                    "session pair " << p
                                    << " references sequences outside the "
                                       "resident database");
    SessionPairEntry entry{pr.seq_a, pr.seq_b};
    std::memcpy(image.bytes.data() + header.pair_table_off +
                    p * sizeof(SessionPairEntry),
                &entry, sizeof(entry));
  }
  image.result_off = header.result_off;
  image.readback_bytes = readback_end - header.result_off;
  image.total_bytes = readback_end;
  return image;
}

dna::Cigar decode_cigar(std::span<const std::uint32_t> reversed_runs) {
  dna::Cigar cigar;
  for (auto it = reversed_runs.rbegin(); it != reversed_runs.rend(); ++it) {
    cigar.push(decode_cigar_op(*it), decode_cigar_len(*it));
  }
  return cigar;
}

}  // namespace pimnw::core
