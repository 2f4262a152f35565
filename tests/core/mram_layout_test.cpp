#include "core/mram_layout.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace pimnw::core {
namespace {

TEST(SeqPoolTest, PacksAlignedEntries) {
  std::vector<std::string_view> seqs = {"ACGT", "ACGTACGTA", "T"};
  SeqPool pool = SeqPool::build(seqs);
  ASSERT_EQ(pool.size(), 3u);
  for (std::uint32_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(pool.entry(i).offset % 8, 0u) << "entry " << i;
    EXPECT_EQ(pool.entry(i).length, seqs[i].size());
  }
  EXPECT_EQ(pool.bytes().size() % 8, 0u);
  EXPECT_THROW(pool.entry(3), CheckError);
}

TEST(SeqPoolTest, PackedBytesDecodeBack) {
  std::vector<std::string_view> seqs = {"GATTACA"};
  SeqPool pool = SeqPool::build(seqs);
  // First byte holds G,A,T,T = codes 2,0,3,3 -> 0b11110010.
  EXPECT_EQ(pool.bytes()[pool.entry(0).offset], 0xF2);
}

TEST(CigarRunTest, EncodeDecodeRoundTrip) {
  for (auto op : {dna::CigarOp::kMatch, dna::CigarOp::kMismatch,
                  dna::CigarOp::kInsert, dna::CigarOp::kDelete}) {
    for (std::uint32_t len : {1u, 2u, 1000u, (1u << 30) - 1}) {
      const std::uint32_t run = encode_cigar_run(op, len);
      EXPECT_EQ(decode_cigar_op(run), op);
      EXPECT_EQ(decode_cigar_len(run), len);
    }
  }
}

TEST(CigarRunTest, DecodeCigarReversesRuns) {
  std::vector<std::uint32_t> reversed = {
      encode_cigar_run(dna::CigarOp::kDelete, 2),
      encode_cigar_run(dna::CigarOp::kMatch, 5),
  };
  dna::Cigar cigar = decode_cigar(reversed);
  EXPECT_EQ(cigar.to_string(), "5=2D");
}

class MramImageTest : public ::testing::Test {
 protected:
  MramImageTest() {
    seqs_ = {"ACGTACGTACGTACGT", "ACGTACGTACGTAC", "TTTT"};
    std::vector<std::string_view> views(seqs_.begin(), seqs_.end());
    pool_ = SeqPool::build(views);
    batch_.pairs = {{0, 1, 100}, {1, 2, 101}, {0, 2, 102}};
  }

  BatchHeader header_of(const MramImage& image) {
    BatchHeader header;
    std::memcpy(&header, image.bytes.data(), sizeof(header));
    return header;
  }

  std::vector<std::string> seqs_;
  SeqPool pool_;
  DpuBatchInput batch_;
  AlignConfig align_config_;
  PoolConfig pool_config_;
};

TEST_F(MramImageTest, HeaderRoundTrips) {
  align_config_.band_width = 64;
  const MramImage image =
      build_mram_image(batch_, pool_, nw_kernel(), align_config_, pool_config_);
  const BatchHeader header = header_of(image);
  EXPECT_EQ(header.magic, kBatchMagic);
  EXPECT_EQ(header.nr_seqs, 3u);
  EXPECT_EQ(header.nr_pairs, 3u);
  EXPECT_EQ(header.band_width, 64);
  EXPECT_EQ(header.flags & kFlagTraceback, kFlagTraceback);
  EXPECT_EQ(header.match, align_config_.scoring.match);
  EXPECT_EQ(header.gap_extend, align_config_.scoring.gap_extend);
}

TEST_F(MramImageTest, RegionsAreOrderedAndAligned) {
  const MramImage image =
      build_mram_image(batch_, pool_, nw_kernel(), align_config_, pool_config_);
  const BatchHeader header = header_of(image);
  EXPECT_LT(header.seq_table_off, header.pair_table_off);
  EXPECT_LT(header.pair_table_off, header.result_off);
  EXPECT_LT(header.result_off, header.cigar_off);
  EXPECT_LE(header.cigar_off, header.bt_scratch_off);
  EXPECT_EQ(header.result_off % 8, 0u);
  EXPECT_EQ(header.bt_scratch_off % 8, 0u);
  EXPECT_EQ(header.bt_scratch_stride % 8, 0u);
  EXPECT_EQ(image.result_off, header.result_off);
  EXPECT_EQ(image.total_bytes, header.total_bytes);
  // The written image covers everything before the results region.
  EXPECT_GE(image.bytes.size(), header.pair_table_off);
  EXPECT_LE(image.bytes.size(), header.result_off);
}

TEST_F(MramImageTest, SequenceBytesEmbeddedInPerDpuMode) {
  const MramImage image =
      build_mram_image(batch_, pool_, nw_kernel(), align_config_, pool_config_);
  const BatchHeader header = header_of(image);
  SeqEntry entry;
  std::memcpy(&entry, image.bytes.data() + header.seq_table_off,
              sizeof(entry));
  EXPECT_EQ(entry.length, seqs_[0].size());
  // Packed bytes of sequence 0 must appear at its stated offset.
  EXPECT_EQ(image.bytes[entry.data_off],
            pool_.bytes()[pool_.entry(0).offset]);
}

TEST_F(MramImageTest, ScoreOnlyModeHasNoCigarNorScratch) {
  align_config_.traceback = false;
  const MramImage image =
      build_mram_image(batch_, pool_, nw_kernel(), align_config_, pool_config_);
  const BatchHeader header = header_of(image);
  EXPECT_EQ(header.flags & kFlagTraceback, 0u);
  EXPECT_EQ(header.bt_scratch_stride, 0u);
  // Readback shrinks to just the results.
  EXPECT_EQ(image.readback_bytes,
            batch_.pairs.size() * sizeof(PairResult));
}

TEST_F(MramImageTest, PairEntriesCarryGlobalIdsAndCigarSlots) {
  const MramImage image =
      build_mram_image(batch_, pool_, nw_kernel(), align_config_, pool_config_);
  const BatchHeader header = header_of(image);
  for (std::size_t p = 0; p < batch_.pairs.size(); ++p) {
    PairEntry entry;
    std::memcpy(&entry,
                image.bytes.data() + header.pair_table_off +
                    p * sizeof(PairEntry),
                sizeof(entry));
    EXPECT_EQ(entry.global_id, batch_.pairs[p].global_id);
    EXPECT_EQ(entry.cigar_off % 8, 0u);
    const std::uint64_t m = pool_.entry(entry.seq_a).length;
    const std::uint64_t n = pool_.entry(entry.seq_b).length;
    EXPECT_EQ(entry.cigar_cap, m + n + 2);
  }
}

TEST_F(MramImageTest, OversizedBatchRejected) {
  // A band so wide that even a 4-base pair's BT scratch (one nibble-packed
  // row per anti-diagonal, per pool) exceeds the 64 MB bank.
  std::vector<std::string_view> views = {"ACGT"};
  SeqPool tiny = SeqPool::build(views);
  DpuBatchInput batch;
  batch.pairs = {{0, 0, 0}};
  align_config_.band_width = std::int64_t{1} << 24;
  EXPECT_THROW(build_mram_image(batch, tiny, nw_kernel(), align_config_,
                                pool_config_),
               CheckError);
}

TEST_F(MramImageTest, InvalidSeqIndexRejected) {
  DpuBatchInput batch;
  batch.pairs = {{0, 9, 0}};
  EXPECT_THROW(
      build_mram_image(batch, pool_, nw_kernel(), align_config_, pool_config_),
      CheckError);
}


TEST_F(MramImageTest, SinglePairFootprintHelperMatchesBuild) {
  // single_pair_image_bytes is the per-pair oversized-admission check; it
  // must mirror build_mram_image's layout arithmetic exactly, or the host
  // would admit pairs the serializer then dies on (or reject good ones).
  const std::vector<std::pair<std::string, std::string>> shapes = {
      {"ACGT", "ACGT"},
      {std::string(1000, 'A'), std::string(997, 'C')},
      {std::string(513, 'G'), std::string(64, 'T')},
  };
  for (const bool traceback : {true, false}) {
    AlignConfig config = align_config_;
    config.traceback = traceback;
    for (const auto& [a, b] : shapes) {
      const std::vector<std::string_view> views = {a, b};
      const SeqPool pool = SeqPool::build(views);
      DpuBatchInput batch;
      batch.pairs = {{0, 1, 0}};
      const MramImage image =
          build_mram_image(batch, pool, nw_kernel(), config, pool_config_);
      EXPECT_EQ(single_pair_image_bytes(a.size(), b.size(), nw_kernel(),
                                        config, pool_config_),
                image.total_bytes)
          << "len_a=" << a.size() << " len_b=" << b.size()
          << " traceback=" << traceback;
    }
  }
}

}  // namespace
}  // namespace pimnw::core
