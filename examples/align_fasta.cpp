// align_fasta — the adoption-path tool: align sequences from FASTA files on
// the simulated PiM system and emit a TSV of scores/CIGARs.
//
// Modes:
//   pairwise (default): record i of --queries aligns to record i of
//     --targets (like the paper's synthetic pair datasets);
//   --all-vs-all: every unordered pair of --queries (like the 16S study).
//
// Ambiguous bases ('N' etc.) are substituted with random nucleotides before
// packing, exactly as the paper's host program does (§4.1.1).
#include <fstream>
#include <iostream>

#include "core/host.hpp"
#include "dna/alphabet.hpp"
#include "dna/fasta.hpp"
#include "dna/sam.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace pimnw;
  Cli cli("align_fasta", "align FASTA sequences on the PiM system");
  cli.flag("queries", std::string(""), "FASTA file of query sequences");
  cli.flag("targets", std::string(""),
           "FASTA file of target sequences (pairwise mode)");
  cli.flag("all-vs-all", false, "all-against-all over --queries");
  cli.flag("out", std::string("-"), "output TSV path ('-' = stdout)");
  cli.flag("ranks", std::int64_t{1}, "PiM ranks to simulate");
  cli.flag("band", std::int64_t{128}, "adaptive band width");
  cli.flag("cigar", true, "emit CIGAR strings (score-only if false)");
  cli.flag("sam", false, "emit SAM instead of TSV (pairwise mode only)");
  cli.flag("seed", std::int64_t{1}, "seed for N-base substitution");
  cli.parse(argc, argv);

  try {
    if (cli.get_string("queries").empty()) {
      std::cerr << cli.usage()
                << "\nexample:\n  align_fasta --queries a.fa --targets b.fa\n";
      return 2;
    }
    Xoshiro256 rng(static_cast<std::uint64_t>(cli.get_int("seed")));
    auto load = [&rng](const std::string& path) {
      auto records = dna::read_fasta_file(path);
      for (auto& record : records) {
        dna::resolve_ambiguous(record.sequence, rng);
      }
      return records;
    };
    const auto queries = load(cli.get_string("queries"));

    core::PimAlignerConfig config;
    config.nr_ranks = static_cast<int>(cli.get_int("ranks"));
    config.align.band_width = cli.get_int("band");
    config.align.traceback = cli.get_bool("cigar");
    core::PimAligner aligner(config);

    std::ofstream file;
    std::ostream* out = &std::cout;
    if (cli.get_string("out") != "-") {
      file.open(cli.get_string("out"));
      if (!file.good()) {
        std::cerr << "cannot open " << cli.get_string("out") << "\n";
        return 2;
      }
      out = &file;
    }
    if (!cli.get_bool("sam")) {
      *out << "query\ttarget\tscore\tidentity\tcigar\n";
    }

    core::RunReport report;
    if (cli.get_bool("all-vs-all")) {
      // Every unordered pair, row-major. Pairs of the same DPU that share a
      // record reference one interned copy of it.
      std::vector<core::PairInput> pairs;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        for (std::size_t j = i + 1; j < queries.size(); ++j) {
          pairs.push_back({queries[i].sequence, queries[j].sequence});
        }
      }
      std::vector<core::PairOutput> results;
      report = aligner.align_pairs(pairs, &results);
      std::size_t p = 0;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        for (std::size_t j = i + 1; j < queries.size(); ++j, ++p) {
          const auto& r = results[p];
          *out << queries[i].name << '\t' << queries[j].name << '\t'
               << (r.ok ? std::to_string(r.score) : "NA") << '\t'
               << (r.ok ? std::to_string(r.cigar.identity()) : "NA") << '\t'
               << (r.ok ? r.cigar.to_string() : "") << '\n';
        }
      }
    } else {
      if (cli.get_string("targets").empty()) {
        std::cerr << "pairwise mode needs --targets (or use --all-vs-all)\n";
        return 2;
      }
      const auto targets = load(cli.get_string("targets"));
      const std::size_t count = std::min(queries.size(), targets.size());
      if (queries.size() != targets.size()) {
        std::cerr << "warning: record counts differ (" << queries.size()
                  << " vs " << targets.size() << "); aligning the first "
                  << count << "\n";
      }
      std::vector<core::PairInput> pairs;
      for (std::size_t p = 0; p < count; ++p) {
        pairs.push_back({queries[p].sequence, targets[p].sequence});
      }
      std::vector<core::PairOutput> results;
      report = aligner.align_pairs(pairs, &results);
      if (cli.get_bool("sam")) {
        std::vector<dna::SamReference> refs;
        std::vector<dna::SamRecord> records;
        for (std::size_t p = 0; p < count; ++p) {
          refs.push_back({targets[p].name, targets[p].sequence.size()});
          dna::SamRecord record;
          record.qname = queries[p].name;
          record.rname = targets[p].name;
          record.sequence = queries[p].sequence;
          record.mapped = results[p].ok && !results[p].cigar.empty();
          record.cigar = results[p].cigar;
          record.score = results[p].score;
          records.push_back(std::move(record));
        }
        dna::write_sam(*out, refs, records);
      } else {
        for (std::size_t p = 0; p < count; ++p) {
          const auto& r = results[p];
          *out << queries[p].name << '\t' << targets[p].name << '\t'
               << (r.ok ? std::to_string(r.score) : "NA") << '\t'
               << (r.ok ? std::to_string(r.cigar.identity()) : "NA") << '\t'
               << (r.ok ? r.cigar.to_string() : "") << '\n';
        }
      }
    }
    std::cerr << "aligned " << report.total_pairs << " pairs on "
              << config.nr_ranks * 64 << " simulated DPUs; modeled "
              << report.makespan_seconds << " s (transfers "
              << report.transfer_seconds << " s)\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
