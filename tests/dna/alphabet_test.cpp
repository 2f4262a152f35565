#include "dna/alphabet.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace pimnw::dna {
namespace {

TEST(AlphabetTest, EncodeDecodeRoundTrip) {
  for (char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_EQ(decode_base(encode_base(c)), c);
  }
}

TEST(AlphabetTest, LowercaseEncodesLikeUppercase) {
  EXPECT_EQ(encode_base('a'), encode_base('A'));
  EXPECT_EQ(encode_base('c'), encode_base('C'));
  EXPECT_EQ(encode_base('g'), encode_base('G'));
  EXPECT_EQ(encode_base('t'), encode_base('T'));
}

TEST(AlphabetTest, CodesAreDistinctTwoBitValues) {
  EXPECT_EQ(encode_base('A'), 0);
  EXPECT_EQ(encode_base('C'), 1);
  EXPECT_EQ(encode_base('G'), 2);
  EXPECT_EQ(encode_base('T'), 3);
}

TEST(AlphabetTest, NonAcgtEncodesToSentinel) {
  for (char c : {'N', 'n', 'X', '-', ' ', '\0', '5'}) {
    EXPECT_EQ(encode_base(c), 0xff) << "char: " << c;
  }
}

TEST(AlphabetTest, DecodeRejectsBadCode) {
  EXPECT_THROW(decode_base(4), CheckError);
  EXPECT_THROW(decode_base(0xff), CheckError);
}

TEST(AlphabetTest, ComplementPairs) {
  EXPECT_EQ(complement(kA), kT);
  EXPECT_EQ(complement(kT), kA);
  EXPECT_EQ(complement(kC), kG);
  EXPECT_EQ(complement(kG), kC);
}

TEST(AlphabetTest, IsAcgt) {
  EXPECT_TRUE(is_acgt('A'));
  EXPECT_TRUE(is_acgt('t'));
  EXPECT_FALSE(is_acgt('N'));
  EXPECT_FALSE(is_acgt('>'));
}

TEST(AlphabetTest, ResolveAmbiguousReplacesAllNonAcgt) {
  Xoshiro256 rng(1);
  std::string seq = "ACGTNNRYacgtN";
  const std::size_t substituted = resolve_ambiguous(seq, rng);
  EXPECT_EQ(substituted, 5u);  // N N R Y N
  require_acgt(seq);           // must not throw
  EXPECT_EQ(seq.substr(0, 4), "ACGT");
  EXPECT_EQ(seq.substr(8, 4), "ACGT");  // lowercase uppercased
}

TEST(AlphabetTest, ResolveAmbiguousIsDeterministicPerSeed) {
  std::string s1 = "NNNNNNNN";
  std::string s2 = s1;
  Xoshiro256 rng1(77);
  Xoshiro256 rng2(77);
  resolve_ambiguous(s1, rng1);
  resolve_ambiguous(s2, rng2);
  EXPECT_EQ(s1, s2);
}

TEST(AlphabetTest, RequireAcgtNamesOffendingPosition) {
  try {
    require_acgt("ACGNT");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("position 3"), std::string::npos);
  }
}

TEST(AlphabetTest, RequireAcgtAcceptsEmpty) {
  EXPECT_NO_THROW(require_acgt(""));
}

TEST(AlphabetTest, FirstNonAcgtFindsTheFirstOffender) {
  EXPECT_EQ(first_non_acgt(""), std::string_view::npos);
  EXPECT_EQ(first_non_acgt("ACGTacgt"), std::string_view::npos);
  EXPECT_EQ(first_non_acgt("ACnTN"), 2u);
  EXPECT_EQ(first_non_acgt("N"), 0u);
  EXPECT_EQ(first_non_acgt(std::string("ACG\0T", 5)), 3u);
}

}  // namespace
}  // namespace pimnw::dna
