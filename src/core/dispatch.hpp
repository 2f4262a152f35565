// Heterogeneous dispatch over AlignerBackends (ISSUE 4, DESIGN.md §11).
//
// The Dispatcher routes a batch of pairs across the registered backends,
// feeds them concurrently (host backends execute on the shared pool while
// the PiM simulation runs on the calling thread), and merges the outputs
// back in input order. Three routing policies:
//
//  * kSingle          — everything to one backend (the pre-ISSUE-4 world,
//                       now expressible per call instead of per call-site);
//  * kLengthThreshold — pairs whose longer sequence reaches a threshold go
//                       to the long-read backend, the rest to the short one;
//  * kCostModel       — per-pair cost minimisation on the paper's workload
//                       model W(m,n) = (m+n)·w (§4.1.2): each pair goes to
//                       the backend whose calibrated estimate for it is
//                       smallest among those whose max_pair_length admits
//                       it. All backends share the host cores (the PiM
//                       simulator is host compute too), so total estimated
//                       work — not per-backend load balance — is what the
//                       wall-clock pays; calibrate() replaces the analytic
//                       throughput constants with measured ones.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/backend.hpp"

namespace pimnw::core {

enum class RoutePolicy { kSingle, kLengthThreshold, kCostModel };

const char* route_policy_name(RoutePolicy policy);
std::optional<RoutePolicy> parse_route_policy(std::string_view name);

struct DispatchConfig {
  RoutePolicy policy = RoutePolicy::kSingle;
  /// kSingle: the backend everything routes to.
  BackendKind single = BackendKind::kPim;
  /// kLengthThreshold: pairs with max(|a|, |b|) >= this go to long_backend.
  std::size_t length_threshold = 5000;
  BackendKind short_backend = BackendKind::kCpu;
  BackendKind long_backend = BackendKind::kPim;
};

/// Outcome of one Dispatcher::align call.
struct DispatchReport {
  RoutePolicy policy = RoutePolicy::kSingle;
  /// End-to-end wall-clock of the dispatch: routing + every backend's
  /// compute + the in-order merge. The only number the policies are
  /// compared on (modeled PiM time stays inside its BackendReport).
  double wall_seconds = 0.0;
  std::uint64_t total_pairs = 0;
  std::uint64_t aligned = 0;
  /// Pairs routed to each BackendKind (indexed by static_cast<int>(kind)).
  std::array<std::uint64_t, kBackendKinds> routed{};
  /// One report per registered backend (in registration order), including
  /// the ones that received no pairs this call.
  std::vector<BackendReport> backends;
};

void write_dispatch_json(std::ostream& out, const DispatchReport& report);

class Dispatcher {
 public:
  /// Backends are borrowed (caller keeps ownership) and must outlive the
  /// dispatcher. At most one backend per BackendKind.
  Dispatcher(DispatchConfig config, std::vector<AlignerBackend*> backends);

  const DispatchConfig& config() const { return config_; }

  /// The registered backend of `kind`, or nullptr.
  AlignerBackend* backend(BackendKind kind) const;

  /// Time a probe subset of `sample` on every backend and set each
  /// backend's cost_scale to measured/estimated, so kCostModel routes on
  /// observed throughput instead of the analytic constants. A backend
  /// probes the first `max_probe_pairs` pairs its max_pair_length admits
  /// and keeps its scale when it admits none. Cheap (a few pairs per
  /// backend); call once per workload shape.
  void calibrate(std::span<const PairInput> sample,
                 std::size_t max_probe_pairs = 4);

  /// Persist / restore calibrate()'s per-backend cost scales, so a service
  /// startup can skip the warm-up probes (--calibration-file on the benches
  /// and pimnw_serve). JSON shape:
  ///   { "cost_scale": { "pim": 1.23, "cpu": 0.98 } }
  void save_calibration(std::ostream& out) const;
  /// Returns false — leaving every scale untouched — when the stream lacks
  /// a positive entry for any registered backend.
  bool load_calibration(std::istream& in);
  void save_calibration_file(const std::string& path) const;
  /// False when the file is missing or invalid (caller falls back to
  /// calibrate()).
  bool load_calibration_file(const std::string& path);

  /// Smallest calibrated estimate across the backends that admit one
  /// (len_a, len_b) pair — the admission cost the streaming service's
  /// backpressure charges per queued pair (under kCostModel it is the work
  /// the pair will actually cost).
  double min_estimate_seconds(std::size_t len_a, std::size_t len_b) const;

  /// Route, execute, merge. `out` (when non-null) receives one PairOutput
  /// per input pair, in input order regardless of routing.
  DispatchReport align(std::span<const PairInput> pairs,
                       std::vector<PairOutput>* out);

 private:
  /// Backend index (into backends_) for each pair, per the policy.
  std::vector<std::size_t> route(std::span<const PairInput> pairs) const;
  /// The kCostModel choice for one pair: the smallest calibrated estimate
  /// among the backends whose max_pair_length admits its longer side, or
  /// backend 0 (which rejects it) when none does.
  std::size_t cheapest(std::size_t len_a, std::size_t len_b) const;
  std::size_t index_of(BackendKind kind) const;  // PIMNW_CHECKs presence

  DispatchConfig config_;
  std::vector<AlignerBackend*> backends_;
};

}  // namespace pimnw::core
