#include "core/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"
#include "util/trace.hpp"

namespace pimnw::core {

namespace {

/// Routed-pair counters per backend kind, created lazily per kind (the label
/// set is the backend name). Registry handles are stable, so caching raw
/// pointers in a static array is safe.
metrics::Counter& routed_counter(BackendKind kind) {
  // Atomic slots: several dispatchers may run align() on different threads;
  // racing initialisers both store the same registry handle.
  static std::atomic<metrics::Counter*> counters[kBackendKinds] = {};
  auto& slot = counters[static_cast<std::size_t>(kind)];
  metrics::Counter* c = slot.load(std::memory_order_acquire);
  if (c == nullptr) {
    c = &metrics::MetricsRegistry::global().counter(
        "pimnw_dispatch_routed_pairs_total",
        "Pairs routed to each backend by the dispatch policy",
        {{"backend", backend_kind_name(kind)}});
    slot.store(c, std::memory_order_release);
  }
  return *c;
}

/// Calibration drift: per-align-call actual/predicted seconds per backend.
/// Predicted is the sum of the backend's own estimate_seconds over the pairs
/// routed to it; actual is the modeled makespan for modeled backends and the
/// measured wall-clock for host backends. A drifting ratio means the cost
/// policy is routing on stale calibration.
metrics::Histogram& estimate_error_histogram(BackendKind kind) {
  static std::atomic<metrics::Histogram*> histograms[kBackendKinds] = {};
  auto& slot = histograms[static_cast<std::size_t>(kind)];
  metrics::Histogram* h = slot.load(std::memory_order_acquire);
  if (h == nullptr) {
    metrics::HistogramOptions options;
    options.min_bound = 1.0 / 1024.0;  // ratios: 2^-10 .. 2^10
    options.growth = 2.0;
    options.bucket_count = 21;
    h = &metrics::MetricsRegistry::global().histogram(
        "pimnw_dispatch_estimate_error_ratio",
        "Actual/predicted seconds per backend per align() call",
        {{"backend", backend_kind_name(kind)}}, options);
    slot.store(h, std::memory_order_release);
  }
  return *h;
}

/// Whether `backend` accepts a pair whose longer side is `longest` bases.
bool admits(const AlignerBackend& backend, std::size_t longest) {
  const std::uint64_t cap = backend.capabilities().max_pair_length;
  return cap == 0 || longest <= cap;
}

}  // namespace

const char* route_policy_name(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kSingle:
      return "single";
    case RoutePolicy::kLengthThreshold:
      return "threshold";
    case RoutePolicy::kCostModel:
      return "cost";
  }
  return "?";
}

std::optional<RoutePolicy> parse_route_policy(std::string_view name) {
  if (name == "single") return RoutePolicy::kSingle;
  if (name == "threshold") return RoutePolicy::kLengthThreshold;
  if (name == "cost") return RoutePolicy::kCostModel;
  return std::nullopt;
}

Dispatcher::Dispatcher(DispatchConfig config,
                       std::vector<AlignerBackend*> backends)
    : config_(config), backends_(std::move(backends)) {
  PIMNW_CHECK_MSG(!backends_.empty(), "dispatcher needs at least one backend");
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    PIMNW_CHECK_MSG(backends_[i] != nullptr, "null backend");
    for (std::size_t j = i + 1; j < backends_.size(); ++j) {
      PIMNW_CHECK_MSG(backends_[i]->kind() != backends_[j]->kind(),
                      "duplicate backend kind "
                          << backend_kind_name(backends_[i]->kind()));
    }
  }
}

AlignerBackend* Dispatcher::backend(BackendKind kind) const {
  for (AlignerBackend* b : backends_) {
    if (b->kind() == kind) return b;
  }
  return nullptr;
}

std::size_t Dispatcher::index_of(BackendKind kind) const {
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i]->kind() == kind) return i;
  }
  PIMNW_CHECK_MSG(false, "no registered backend of kind "
                             << backend_kind_name(kind));
  return 0;
}

void Dispatcher::calibrate(std::span<const PairInput> sample,
                           std::size_t max_probe_pairs) {
  for (AlignerBackend* b : backends_) {
    // Probe only pairs the backend admits: a pair it rejects at once would
    // read as near-free work and drag its cost scale towards zero.
    std::vector<PairInput> probe;
    for (const PairInput& pair : sample) {
      if (probe.size() == max_probe_pairs) break;
      if (admits(*b, std::max(pair.a.size(), pair.b.size()))) {
        probe.push_back(pair);
      }
    }
    if (probe.empty()) continue;
    double estimated = 0.0;
    for (const PairInput& pair : probe) {
      estimated += b->estimate_seconds(pair.a.size(), pair.b.size()) /
                   b->cost_scale();
    }
    Stopwatch watch;
    const AlignerBackend::Ticket ticket = b->submit(probe);
    (void)b->wait(ticket);
    const double measured = watch.seconds();
    if (estimated > 0 && measured > 0) {
      b->set_cost_scale(measured / estimated);
    }
    // Reset accounting so probe runs don't leak into the next align()'s
    // per-backend reports.
    (void)b->drain();
  }
}

void Dispatcher::save_calibration(std::ostream& out) const {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\n  \"cost_scale\": {";
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    out << (i > 0 ? ", " : " ") << "\""
        << backend_kind_name(backends_[i]->kind())
        << "\": " << backends_[i]->cost_scale();
  }
  out << " }\n}\n";
}

bool Dispatcher::load_calibration(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  // Minimal scan over our own save format: a "<kind>": <double> entry per
  // registered backend. All-or-nothing — a partial file would silently skew
  // the cost-model routing, so any missing/invalid entry rejects the file.
  std::vector<double> scales(backends_.size(), 1.0);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const std::string key =
        std::string("\"") + backend_kind_name(backends_[i]->kind()) + "\"";
    const std::size_t at = text.find(key);
    if (at == std::string::npos) return false;
    const std::size_t colon = text.find(':', at + key.size());
    if (colon == std::string::npos) return false;
    const char* start = text.c_str() + colon + 1;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start || !(value > 0.0)) return false;
    scales[i] = value;
  }
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    backends_[i]->set_cost_scale(scales[i]);
  }
  return true;
}

void Dispatcher::save_calibration_file(const std::string& path) const {
  std::ofstream out(path);
  PIMNW_CHECK_MSG(out.good(), "cannot write calibration file: path=" << path);
  save_calibration(out);
}

bool Dispatcher::load_calibration_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return false;
  if (!load_calibration(in)) {
    PIMNW_WARN("ignoring invalid calibration file: path=" << path);
    return false;
  }
  return true;
}

double Dispatcher::min_estimate_seconds(std::size_t len_a,
                                        std::size_t len_b) const {
  return backends_[cheapest(len_a, len_b)]->estimate_seconds(len_a, len_b);
}

std::size_t Dispatcher::cheapest(std::size_t len_a, std::size_t len_b) const {
  const std::size_t longest = std::max(len_a, len_b);
  std::size_t best_b = 0;
  double best_est = -1.0;
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (!admits(*backends_[b], longest)) continue;
    const double est = backends_[b]->estimate_seconds(len_a, len_b);
    if (best_est < 0 || est < best_est) {
      best_est = est;
      best_b = b;
    }
  }
  return best_b;
}

std::vector<std::size_t> Dispatcher::route(
    std::span<const PairInput> pairs) const {
  std::vector<std::size_t> target(pairs.size(), 0);
  switch (config_.policy) {
    case RoutePolicy::kSingle: {
      const std::size_t b = index_of(config_.single);
      std::fill(target.begin(), target.end(), b);
      break;
    }
    case RoutePolicy::kLengthThreshold: {
      const std::size_t short_b = index_of(config_.short_backend);
      const std::size_t long_b = index_of(config_.long_backend);
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        const std::size_t longest =
            std::max(pairs[p].a.size(), pairs[p].b.size());
        target[p] = longest >= config_.length_threshold ? long_b : short_b;
      }
      break;
    }
    case RoutePolicy::kCostModel: {
      // Every backend executes on the same host cores (the PiM simulator
      // burns host CPU like the DP kernels do), so there is no second
      // machine to balance against: the makespan is simply the total work,
      // and the optimal route sends each pair to the backend whose
      // (calibrated) estimate is smallest. The estimates come from the
      // paper's workload model W(m,n) = (m+n)·w for the banded backends
      // and the cost-proportional wavefront model for WFA.
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        target[p] = cheapest(pairs[p].a.size(), pairs[p].b.size());
      }
      break;
    }
  }
  return target;
}

DispatchReport Dispatcher::align(std::span<const PairInput> pairs,
                                 std::vector<PairOutput>* out) {
  DispatchReport report;
  report.policy = config_.policy;
  report.total_pairs = pairs.size();
  if (out != nullptr) {
    out->assign(pairs.size(), PairOutput{});
  }

  Stopwatch watch;
  const std::vector<std::size_t> target = route(pairs);

  // Contiguous per-backend buckets (submit takes a span) plus the index
  // lists that undo the permutation at merge time.
  std::vector<std::vector<PairInput>> bucket(backends_.size());
  std::vector<std::vector<std::size_t>> origin(backends_.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    bucket[target[p]].push_back(pairs[p]);
    origin[target[p]].push_back(p);
  }

  // Submit every bucket first: the host backends' jobs start flowing to the
  // pool workers immediately. Then wait PiM first — its simulation runs on
  // this thread while the workers chew the other backends' pairs, which is
  // the heterogeneous overlap this layer exists for.
  std::vector<std::optional<AlignerBackend::Ticket>> ticket(backends_.size());
  std::vector<double> predicted(backends_.size(), 0.0);
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (bucket[b].empty()) continue;
    PIMNW_TRACE_SPAN(std::string("submit ") +
                     backend_kind_name(backends_[b]->kind()));
    routed_counter(backends_[b]->kind()).add(bucket[b].size());
    for (const PairInput& pair : bucket[b]) {
      predicted[b] +=
          backends_[b]->estimate_seconds(pair.a.size(), pair.b.size());
    }
    ticket[b] = backends_[b]->submit(bucket[b]);
    report.routed[static_cast<std::size_t>(backends_[b]->kind())] +=
        bucket[b].size();
  }
  // Wait the modeled backends (PiM, session) first: their simulations run
  // on this thread while the pool workers chew the host backends' pairs.
  std::vector<std::size_t> wait_order;
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (ticket[b].has_value() &&
        backends_[b]->capabilities().modeled_time) {
      wait_order.push_back(b);
    }
  }
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (ticket[b].has_value() &&
        !backends_[b]->capabilities().modeled_time) {
      wait_order.push_back(b);
    }
  }
  for (const std::size_t b : wait_order) {
    PIMNW_TRACE_SPAN(std::string("wait ") +
                     backend_kind_name(backends_[b]->kind()));
    std::vector<PairOutput> outputs = backends_[b]->wait(*ticket[b]);
    PIMNW_CHECK(outputs.size() == origin[b].size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      if (outputs[i].ok) ++report.aligned;
      if (out != nullptr) {
        (*out)[origin[b][i]] = std::move(outputs[i]);
      }
    }
  }
  for (AlignerBackend* b : backends_) {
    report.backends.push_back(b->drain());
  }
  // Calibration drift: actual/predicted per backend for this call. Modeled
  // backends are judged on modeled seconds (that is what the estimator
  // predicts); host backends on measured wall-clock.
  for (std::size_t b = 0; b < backends_.size(); ++b) {
    if (bucket[b].empty() || predicted[b] <= 0.0) continue;
    const BackendReport& br = report.backends[b];
    const double actual = backends_[b]->capabilities().modeled_time
                              ? br.modeled_seconds
                              : br.measured_seconds;
    if (actual > 0.0) {
      estimate_error_histogram(backends_[b]->kind())
          .record(actual / predicted[b]);
    }
  }
  report.wall_seconds = watch.seconds();
  return report;
}

void write_dispatch_json(std::ostream& out, const DispatchReport& report) {
  out << "{\n";
  out << "  \"policy\": \"" << route_policy_name(report.policy) << "\",\n";
  out << "  \"wall_seconds\": " << report.wall_seconds << ",\n";
  out << "  \"total_pairs\": " << report.total_pairs << ",\n";
  out << "  \"aligned\": " << report.aligned << ",\n";
  out << "  \"routed\": { ";
  for (int k = 0; k < kBackendKinds; ++k) {
    out << "\"" << backend_kind_name(static_cast<BackendKind>(k))
        << "\": " << report.routed[static_cast<std::size_t>(k)]
        << (k + 1 < kBackendKinds ? ", " : " ");
  }
  out << "},\n";
  out << "  \"backends\": [\n";
  for (std::size_t i = 0; i < report.backends.size(); ++i) {
    const BackendReport& b = report.backends[i];
    out << "    { \"kind\": \"" << backend_kind_name(b.kind) << "\""
        << ", \"pairs\": " << b.total_pairs << ", \"aligned\": " << b.aligned
        << ", \"measured_seconds\": " << b.measured_seconds
        << ", \"modeled_seconds\": " << b.modeled_seconds
        << ", \"total_cells\": " << b.total_cells
        << ", \"cells_per_second\": " << b.cells_per_second << " }"
        << (i + 1 < report.backends.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace pimnw::core
