// Quickstart: align two DNA sequences on the (simulated) UPMEM PiM system
// and print the alignment — the library's two-minute tour.
//
//   $ ./quickstart
//   $ ./quickstart --a ACGTAC --b AGGTC
#include <iostream>

#include "core/host.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pimnw;
  Cli cli("quickstart", "align two sequences on the PiM system");
  cli.flag("a", std::string("GATTACAGATTACAGATTACA"), "query sequence");
  cli.flag("b", std::string("GATTACAGTTTACAGATTAA"), "target sequence");
  cli.flag("band", std::int64_t{16}, "adaptive band width");
  cli.parse(argc, argv);

  const std::string& a = cli.get_string("a");
  const std::string& b = cli.get_string("b");

  // Configure a one-rank system (64 DPUs — plenty for one pair); the paper's
  // server would use nr_ranks = 40.
  core::PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = cli.get_int("band");

  core::PimAligner aligner(config);
  std::vector<core::PairInput> pairs = {{a, b}};
  std::vector<core::PairOutput> results;
  const core::RunReport report = aligner.align_pairs(pairs, &results);

  const core::PairOutput& result = results.at(0);
  if (!result.ok) {
    std::cout << "alignment failed: "
              << (result.status == core::PairStatus::kUnreachable
                      ? "the band never reached the end corner"
                      : core::pair_status_name(result.status))
              << "\n";
    return 1;
  }

  std::cout << "score: " << result.score << "\n"
            << "cigar: " << result.cigar.to_string() << "\n"
            << "identity: " << result.cigar.identity() * 100 << "%\n\n"
            << dna::render_alignment(result.cigar, a, b) << "\n"
            << "(ran on " << config.nr_ranks * 64
            << " simulated DPUs; modeled end-to-end time "
            << report.makespan_seconds * 1e6 << " us, of which transfers "
            << report.transfer_seconds * 1e6 << " us)\n";
  return 0;
}
