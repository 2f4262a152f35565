#include "align/verify.hpp"

#include <sstream>

#include "dna/cigar.hpp"

namespace pimnw::align {

std::string check_alignment(const AlignResult& result, std::string_view a,
                            std::string_view b, const Scoring& scoring) {
  if (!result.reached_end) {
    return "alignment did not reach the end corner";
  }
  std::string cigar_issue = dna::validate_cigar(result.cigar, a, b);
  if (!cigar_issue.empty()) {
    return "invalid cigar: " + cigar_issue;
  }
  const Score path_score = cigar_score(result.cigar, scoring);
  if (path_score != result.score) {
    std::ostringstream os;
    os << "cigar path scores " << path_score << " but aligner reported "
       << result.score;
    return os.str();
  }
  return std::string();
}

}  // namespace pimnw::align
