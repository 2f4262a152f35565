// Table 8 reproduction: energy per full-dataset run (kJ) on the two real
// datasets, plus the §5.6 cost-efficiency paragraph. Power figures are the
// paper's whole-system estimates (Falevoz & Legriel methodology); energy =
// power x modeled runtime at paper scale.
#include <iostream>

#include "common/bench_common.hpp"
#include "core/energy.hpp"
#include "core/mram_layout.hpp"
#include "data/pacbio.hpp"
#include "data/phylo16s.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace pimnw;

struct DatasetTimes {
  double intel4215_s = 0;
  double intel4216_s = 0;
  double dpu40_s = 0;
};

DatasetTimes pacbio_times(std::uint64_t seed, double scale) {
  data::PacbioConfig config;
  config.set_count = static_cast<std::size_t>(4 * scale);
  config.region_min = 4000;
  config.region_max = 6000;
  config.reads_min = 4;
  config.reads_max = 7;
  config.seed = seed;
  const data::SetDataset dataset = data::generate_pacbio(config);
  bench::PairList pairs;
  for (const auto& set : dataset.sets) {
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        pairs.emplace_back(set[i], set[j]);
      }
    }
  }
  bench::RuntimeTableSpec spec;
  spec.title = "pacbio";
  spec.klass = baseline::DatasetClass::kPacbio;
  spec.paper_pairs = 8'000'000;
  spec.cpu_band = 512;
  spec.dpu_band = 128;
  spec.traceback = true;
  const bench::RuntimeComparison cmp =
      bench::compute_runtime_comparison(spec, pairs);
  return {cmp.rows[0].modeled_seconds, cmp.rows[1].modeled_seconds,
          cmp.rows[4].modeled_seconds};
}

DatasetTimes s16_times(std::uint64_t seed, double scale) {
  data::Phylo16sConfig config;
  config.species = static_cast<std::size_t>(40 * scale);
  config.seed = seed;
  const std::vector<std::string> seqs = data::generate_16s(config);
  bench::PairList pairs;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    for (std::size_t j = i + 1; j < seqs.size(); ++j) {
      pairs.emplace_back(seqs[i], seqs[j]);
    }
  }
  // Reuse the pairwise driver for timing (broadcast only changes transfer
  // bytes, which are negligible for this table — Table 5 models them).
  bench::RuntimeTableSpec spec;
  spec.title = "16S";
  spec.klass = baseline::DatasetClass::k16S;
  spec.paper_pairs = 9557ull * 9556ull / 2;
  spec.cpu_band = 512;
  spec.dpu_band = 128;
  spec.traceback = false;
  const bench::RuntimeComparison cmp =
      bench::compute_runtime_comparison(spec, pairs);
  return {cmp.rows[0].modeled_seconds, cmp.rows[1].modeled_seconds,
          cmp.rows[4].modeled_seconds};
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("table8_energy",
          "Table 8: energy per run (kJ) on the real datasets, 40 ranks");
  bench::add_common_flags(cli);
  cli.parse(argc, argv);
  bench::apply_common_flags(cli);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double scale = cli.get_double("scale");

  std::cout << "\n### Table 8 — energy consumption (kJ), 40-rank PiM server "
               "vs Intel servers ###\n"
            << std::flush;
  const DatasetTimes s16 = s16_times(seed, scale);
  const DatasetTimes pacbio = pacbio_times(seed + 1, scale);

  const core::PowerModel power;
  TextTable table("Table 8 — energy (kJ)");
  table.header({"system", "16S", "Pacbio", "paper 16S", "paper Pacbio"});
  table.row({"Intel 4215 (307 W)",
             fmt_seconds(core::energy_kj(power.intel4215_watts,
                                         s16.intel4215_s)),
             fmt_seconds(core::energy_kj(power.intel4215_watts,
                                         pacbio.intel4215_s)),
             "1805", "1241"});
  table.row({"Intel 4216 (337 W)",
             fmt_seconds(core::energy_kj(power.intel4216_watts,
                                         s16.intel4216_s)),
             fmt_seconds(core::energy_kj(power.intel4216_watts,
                                         pacbio.intel4216_s)),
             "1192", "939"});
  table.row({"UPMEM PiM (767 W)",
             fmt_seconds(core::energy_kj(power.upmem_server_watts,
                                         s16.dpu40_s)),
             fmt_seconds(core::energy_kj(power.upmem_server_watts,
                                         pacbio.dpu40_s)),
             "484", "387"});
  table.print();

  const double ratio_16s =
      core::energy_kj(power.intel4215_watts, s16.intel4215_s) /
      core::energy_kj(power.upmem_server_watts, s16.dpu40_s);
  const double ratio_pacbio =
      core::energy_kj(power.intel4215_watts, pacbio.intel4215_s) /
      core::energy_kj(power.upmem_server_watts, pacbio.dpu40_s);
  std::cout << "PiM energy advantage: " << fmt_double(ratio_pacbio, 1)
            << "x (Pacbio) to " << fmt_double(ratio_16s, 1)
            << "x (16S); paper: 2.4x to 3.7x\n";

  // §5.6 cost paragraph.
  const core::CostModel cost;
  const double speedup_vs_4216 = pacbio.intel4216_s / pacbio.dpu40_s;
  std::cout << "cost: adding "
            << fmt_count(static_cast<std::uint64_t>(cost.pim_dimms_eur))
            << " EUR of PiM DIMMs to an "
            << fmt_count(static_cast<std::uint64_t>(cost.intel4216_server_eur))
            << " EUR Intel 4216 server ("
            << fmt_double((cost.intel4216_server_eur + cost.pim_dimms_eur) /
                              cost.intel4216_server_eur,
                          1)
            << "x total cost) speeds Pacbio up "
            << fmt_double(speedup_vs_4216, 1)
            << "x (paper: ~5.5x for 1.8x total cost)\n";
  return 0;
}
