#include "core/params.hpp"

#include <sstream>

#include "core/pim_kernel.hpp"

namespace pimnw::core {

const char* kernel_variant_name(KernelVariant variant) {
  return variant == KernelVariant::kPureC ? "pure-C" : "asm";
}

const char* sim_path_name(SimPath path) {
  switch (path) {
    case SimPath::kAuto:
      return "auto";
    case SimPath::kScalar:
      return "scalar";
  }
  return "?";
}

std::string params_json(const PimAlignerConfig& config) {
  std::ostringstream os;
  os << "{ \"nr_ranks\": " << config.nr_ranks
     << ", \"pools\": " << config.pool.pools
     << ", \"tasklets_per_pool\": " << config.pool.tasklets_per_pool
     << ", \"kernel\": \"" << kernel_for(config).name() << "\""
     << ", \"variant\": \"" << kernel_variant_name(config.variant) << "\""
     << ", \"sim_path\": \"" << sim_path_name(config.sim_path) << "\""
     << ", \"band_width\": " << config.align.band_width
     << ", \"wfa_max_cost\": " << config.align.wfa_max_cost
     << ", \"traceback\": " << (config.align.traceback ? "true" : "false")
     << ", \"match\": " << config.align.scoring.match
     << ", \"mismatch\": " << config.align.scoring.mismatch
     << ", \"gap_open\": " << config.align.scoring.gap_open
     << ", \"gap_extend\": " << config.align.scoring.gap_extend
     << ", \"batch_pairs\": " << config.batch_pairs
     << ", \"batch_window\": " << config.batch_window << " }";
  return os.str();
}

}  // namespace pimnw::core
