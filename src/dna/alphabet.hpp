// Nucleotide alphabet and the 2-bit code used throughout the system.
//
// The paper (§4.1.1) encodes each base on 2 bits before shipping sequences to
// the DPUs, and replaces ambiguous 'N' bases with an arbitrary nucleotide
// (following metaFlye and the observation in Li & Durbin that this does not
// change alignment results).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace pimnw::dna {

/// 2-bit nucleotide code. Order matches the ASCII lexicographic convention
/// used by most toolkits (A=0, C=1, G=2, T=3) so complement is `3 - code`.
using Code = std::uint8_t;

inline constexpr Code kA = 0;
inline constexpr Code kC = 1;
inline constexpr Code kG = 2;
inline constexpr Code kT = 3;
inline constexpr int kAlphabetSize = 4;

/// Maps a nucleotide character (case-insensitive) to its 2-bit code.
/// Returns 0xff for anything that is not A/C/G/T — including 'N', which the
/// caller must resolve first (see resolve_ambiguous()).
Code encode_base(char base);

/// Inverse of encode_base() for valid codes; PIMNW_CHECKs the range.
char decode_base(Code code);

/// True if `base` is one of A/C/G/T (either case).
bool is_acgt(char base);

/// Watson–Crick complement of a 2-bit code.
inline Code complement(Code code) { return static_cast<Code>(3 - code); }

/// Replace every non-ACGT character (e.g. the ambiguous base 'N') in `seq`
/// with a deterministic pseudo-random nucleotide drawn from `rng`, mirroring
/// the paper's policy. Uppercases the rest. Returns the number substituted.
std::size_t resolve_ambiguous(std::string& seq, Xoshiro256& rng);

/// Position of the first character of `seq` that is not A/C/G/T (either
/// case), or std::string_view::npos when there is none. One pass, no throw.
std::size_t first_non_acgt(std::string_view seq);

/// Validate that every character of `seq` is A/C/G/T; throws CheckError
/// naming the first offending position otherwise.
void require_acgt(std::string_view seq);

}  // namespace pimnw::dna
