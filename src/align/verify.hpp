// Cross-checks between an AlignResult and the sequences it claims to align.
// Used pervasively in tests and optionally by the host orchestrator
// (PimAligner verify mode) to validate what comes back from the DPUs.
#pragma once

#include <string>
#include <string_view>

#include "align/result.hpp"

namespace pimnw::align {

/// Full consistency check of a traceback-producing alignment:
///  * cigar spans equal the sequence lengths, '='/'X' columns are truthful
///  * cigar_score(cigar) == result.score (the DP score is achieved by the
///    reported path — scores can't be right by accident)
/// Returns empty string when consistent, else a diagnostic.
std::string check_alignment(const AlignResult& result, std::string_view a,
                            std::string_view b, const Scoring& scoring);

}  // namespace pimnw::align
