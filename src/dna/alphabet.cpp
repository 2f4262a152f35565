#include "dna/alphabet.hpp"

#include <array>
#include <cctype>

#include "util/check.hpp"

namespace pimnw::dna {
namespace {

constexpr std::array<Code, 256> build_encode_table() {
  std::array<Code, 256> table{};
  for (auto& v : table) v = 0xff;
  table['A'] = kA;
  table['a'] = kA;
  table['C'] = kC;
  table['c'] = kC;
  table['G'] = kG;
  table['g'] = kG;
  table['T'] = kT;
  table['t'] = kT;
  return table;
}

constexpr std::array<Code, 256> kEncodeTable = build_encode_table();
constexpr char kDecodeTable[4] = {'A', 'C', 'G', 'T'};

}  // namespace

Code encode_base(char base) {
  return kEncodeTable[static_cast<unsigned char>(base)];
}

char decode_base(Code code) {
  PIMNW_CHECK_MSG(code < 4, "invalid 2-bit code " << int(code));
  return kDecodeTable[code];
}

bool is_acgt(char base) { return encode_base(base) != 0xff; }

std::size_t resolve_ambiguous(std::string& seq, Xoshiro256& rng) {
  std::size_t substituted = 0;
  for (char& c : seq) {
    if (is_acgt(c)) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      c = decode_base(static_cast<Code>(rng.below(4)));
      ++substituted;
    }
  }
  return substituted;
}

std::size_t first_non_acgt(std::string_view seq) {
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (!is_acgt(seq[i])) return i;
  }
  return std::string_view::npos;
}

void require_acgt(std::string_view seq) {
  const std::size_t i = first_non_acgt(seq);
  PIMNW_CHECK_MSG(i == std::string_view::npos,
                  "non-ACGT base '" << seq[i] << "' at position " << i);
}

}  // namespace pimnw::dna
