// Phylogeny example (the paper's §5.3 workload as an application): generate
// a 16S-like family, run the all-against-all comparison on the PiM system
// (score-only, database broadcast once), convert scores to distances, and
// build a tree with UPGMA. Prints the distance matrix corner and the tree in
// Newick format.
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <vector>

#include "core/session.hpp"
#include "data/phylo16s.hpp"
#include "util/cli.hpp"

namespace {

using namespace pimnw;

/// Normalised alignment distance in [0, ~1]: 1 - score / best_possible.
double score_to_distance(align::Score score, std::size_t len_a,
                         std::size_t len_b, const align::Scoring& scoring) {
  const double best =
      static_cast<double>(scoring.match) *
      static_cast<double>(std::min(len_a, len_b));
  return std::max(0.0, 1.0 - static_cast<double>(score) / best);
}

/// Minimal UPGMA over a dense distance matrix; returns Newick text.
std::string upgma(std::vector<std::vector<double>> dist,
                  std::vector<std::string> labels) {
  std::vector<std::size_t> cluster_size(labels.size(), 1);
  std::vector<bool> alive(labels.size(), true);
  std::size_t remaining = labels.size();
  while (remaining > 1) {
    double best = std::numeric_limits<double>::max();
    std::size_t bi = 0;
    std::size_t bj = 0;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (!alive[i]) continue;
      for (std::size_t j = i + 1; j < labels.size(); ++j) {
        if (!alive[j]) continue;
        if (dist[i][j] < best) {
          best = dist[i][j];
          bi = i;
          bj = j;
        }
      }
    }
    std::ostringstream merged;
    merged << '(' << labels[bi] << ',' << labels[bj] << "):"
           << std::fixed << std::setprecision(3) << best / 2;
    labels[bi] = merged.str();
    // Average-linkage update.
    for (std::size_t k = 0; k < labels.size(); ++k) {
      if (!alive[k] || k == bi || k == bj) continue;
      const double na = static_cast<double>(cluster_size[bi]);
      const double nb = static_cast<double>(cluster_size[bj]);
      const double d = (na * dist[bi][k] + nb * dist[bj][k]) / (na + nb);
      dist[bi][k] = d;
      dist[k][bi] = d;
    }
    cluster_size[bi] += cluster_size[bj];
    alive[bj] = false;
    --remaining;
  }
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (alive[i]) return labels[i] + ";";
  }
  return ";";
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("phylogeny_16s",
          "all-vs-all 16S comparison on PiM + UPGMA tree");
  cli.flag("species", std::int64_t{12}, "number of 16S-like sequences");
  cli.flag("seed", std::int64_t{16}, "generator seed");
  cli.parse(argc, argv);

  data::Phylo16sConfig data_config;
  data_config.species = static_cast<std::size_t>(cli.get_int("species"));
  data_config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::vector<std::string> seqs = data::generate_16s(data_config);
  const std::size_t k = seqs.size();
  std::cout << "generated " << k << " 16S-like sequences ("
            << seqs.front().size() << ".." << seqs.back().size()
            << " bp)\n";

  // Score-only all-against-all on the PiM system, as in §5.3: the database
  // is broadcast once, then every round moves only (i, j) index pairs.
  core::PimAlignerConfig config;
  config.nr_ranks = 1;
  config.align.band_width = 128;
  core::DbSession session(seqs, config);
  std::vector<core::IndexPair> pairs;
  for (std::uint32_t i = 0; i < k; ++i) {
    for (std::uint32_t j = i + 1; j < k; ++j) pairs.push_back({i, j});
  }
  std::vector<core::PairOutput> outputs;
  const core::RunReport report = session.align_pairs(pairs, &outputs);
  std::cout << "aligned " << report.total_pairs
            << " pairs on 64 simulated DPUs (modeled "
            << report.makespan_seconds * 1e3 << " ms)\n\n";

  std::vector<std::vector<double>> dist(k, std::vector<double>(k, 0.0));
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::size_t i = pairs[p].a;
    const std::size_t j = pairs[p].b;
    const auto& out = outputs[p];
    const double d = out.ok ? score_to_distance(out.score, seqs[i].size(),
                                                seqs[j].size(),
                                                config.align.scoring)
                            : 1.0;
    dist[i][j] = d;
    dist[j][i] = d;
  }

  std::cout << "distance matrix (first 8 species):\n";
  const std::size_t show = std::min<std::size_t>(8, k);
  for (std::size_t i = 0; i < show; ++i) {
    std::cout << "  sp" << std::setw(2) << i << " ";
    for (std::size_t j = 0; j < show; ++j) {
      std::cout << std::fixed << std::setprecision(2) << dist[i][j] << " ";
    }
    std::cout << "\n";
  }

  std::vector<std::string> labels;
  for (std::size_t i = 0; i < k; ++i) labels.push_back("sp" + std::to_string(i));
  std::cout << "\nUPGMA tree (Newick):\n" << upgma(dist, labels) << "\n";
  return 0;
}
