// Process-global metrics registry (DESIGN.md §17).
//
// Live, scrapeable, bounded-memory telemetry for long-running services:
//
//   * Counter    — monotonically increasing, sharded across cache lines so
//                  hot-path increments from many threads do not contend.
//   * Gauge      — a double that can move both ways (queue depth, backlog).
//   * Histogram  — log-bucketed with a fixed bucket count, so memory stays
//                  bounded no matter how many samples are recorded; snapshots
//                  are mergeable and support quantile *estimation*. Exact
//                  per-run quantiles come from the callers' own per-request
//                  results (core::summarize_dispatched), not from here.
//   * SloBurnWindow — sliding-window good/bad event ratio for SLO burn-rate
//                  tracking (deadline misses over short and long windows).
//
// The registry is always on: there is no switch, and each number has one
// writer per layer (service, dispatch, engine, pool, MRAM). Every value here
// is a pure observer — instrumentation reads modeled state and never feeds
// back into it — and the engine's series reconcile exactly with the run's
// StatsCollector records and RunReport (pinned by telemetry_identity_test).
//
// Exposition: `write_prometheus` emits Prometheus text format 0.0.4;
// `write_file` snapshots it to disk for no-network environments; the embedded
// scrape endpoint lives in util/metrics_http.hpp.
//
// Handles returned by the registry (Counter&/Gauge&/Histogram&) are stable for
// the life of the process — series are never deallocated — so call sites may
// cache them in function-local statics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pimnw {
namespace metrics {

/// Label set for one series within a family, e.g. {{"backend", "pim"}}.
/// Order is normalised (sorted by key) when the series is registered.
using Labels = std::vector<std::pair<std::string, std::string>>;

// ---------------------------------------------------------------------------
// Counter: sharded monotonic counter.

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    shard_for_thread().value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over shards. Monotone but not a linearizable point-in-time read;
  /// good enough for scraping.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  static constexpr std::size_t kShards = 8;

  Shard& shard_for_thread() noexcept;

  Shard shards_[kShards];
};

// ---------------------------------------------------------------------------
// Gauge: an atomically updated double.

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept;
  void add(double delta) noexcept;  // CAS loop; no atomic<double>::fetch_add.
  double value() const noexcept;

 private:
  std::atomic<std::uint64_t> bits_{0};  // bit pattern of a double, init 0.0
};

// ---------------------------------------------------------------------------
// Histogram: log-spaced buckets, bounded memory, mergeable snapshots.

struct HistogramOptions {
  /// Upper bound of the first bucket; samples <= min_bound land in bucket 0.
  double min_bound = 1e-6;
  /// Geometric growth factor between consecutive bucket upper bounds.
  double growth = 2.0;
  /// Number of finite buckets; one implicit +Inf overflow bucket follows.
  int bucket_count = 40;

  bool operator==(const HistogramOptions& o) const {
    return min_bound == o.min_bound && growth == o.growth &&
           bucket_count == o.bucket_count;
  }
};

/// An immutable copy of a histogram's state. Snapshots taken from live
/// histograms under concurrent recording are "torn-consistent": each bucket
/// count is itself atomic, but the set need not correspond to one instant.
struct HistogramSnapshot {
  HistogramOptions options;
  std::vector<std::uint64_t> counts;  // bucket_count finite + 1 overflow
  std::uint64_t count = 0;            // total samples
  double sum = 0.0;                   // sum of sample values

  /// Upper bound of finite bucket i: min_bound * growth^i.
  double upper_bound(int i) const;

  /// Quantile estimate, q in [0, 1]: locate the bucket holding the
  /// nearest-rank sample and interpolate linearly inside it. Samples in the
  /// overflow bucket are attributed the last finite upper bound (the estimate
  /// is a lower bound there). Returns 0 for an empty snapshot.
  double quantile(double q) const;

  /// Pointwise sum. Both snapshots must share identical options
  /// (PIMNW_CHECK'd). Merge is associative and commutative, pinned by tests.
  static HistogramSnapshot merge(const HistogramSnapshot& a,
                                 const HistogramSnapshot& b);
};

class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double value) noexcept;
  HistogramSnapshot snapshot() const;
  const HistogramOptions& options() const { return options_; }

  /// Bucket index a value maps to (bucket_count == overflow). Exposed so
  /// tests can pin the boundary arithmetic directly.
  int bucket_index(double value) const noexcept;

 private:
  HistogramOptions options_;
  double inv_log_growth_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // double bit pattern, CAS-added
};

// ---------------------------------------------------------------------------
// SloBurnWindow: sliding-window miss ratio -> burn rate.

/// Tracks good/bad events over a sliding window of `window_seconds`, bucketed
/// into `bucket_count` epoch-tagged slots so old data ages out without
/// per-event storage. Burn rate = miss_ratio / (1 - objective): 1.0 means the
/// error budget is being consumed exactly at the rate the SLO allows.
/// The caller supplies `now` (seconds on any monotone clock), which keeps the
/// window deterministic under test.
class SloBurnWindow {
 public:
  SloBurnWindow(double window_seconds, double objective,
                int bucket_count = 60);

  void record(double now_seconds, bool good, std::uint64_t count = 1);

  double miss_ratio(double now_seconds) const;
  double burn_rate(double now_seconds) const;
  std::uint64_t total(double now_seconds) const;
  std::uint64_t bad(double now_seconds) const;
  double window_seconds() const { return bucket_seconds_ * ring_size(); }
  double objective() const { return objective_; }

 private:
  struct Bucket {
    std::int64_t epoch = -1;
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
  };

  std::size_t ring_size() const { return ring_.size(); }
  void sum_window(double now_seconds, std::uint64_t* good_out,
                  std::uint64_t* bad_out) const;

  double bucket_seconds_;
  double objective_;
  mutable std::mutex mutex_;
  std::vector<Bucket> ring_;
};

// ---------------------------------------------------------------------------
// MetricsRegistry: labeled families of the above.

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-global registry every instrumentation site uses. Tests may
  /// construct private instances instead.
  static MetricsRegistry& global();

  /// Get-or-create a series. `help` is recorded on first registration of the
  /// family; registering the same family name with a different metric type is
  /// a PIMNW_CHECK failure, as is re-registering a histogram family with
  /// different options. Returned references are valid forever.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       const Labels& labels = {},
                       HistogramOptions options = {});

  /// Prometheus text exposition (format 0.0.4). Families sorted by name,
  /// series by label signature, so output is deterministic. Pure observer:
  /// scraping perturbs no counter (pinned by metrics_test).
  void write_prometheus(std::ostream& os) const;
  std::string scrape() const;

  /// File-snapshot fallback for no-network environments: atomically replaces
  /// `path` (write to path.tmp, rename). Returns false on I/O failure.
  bool write_file(const std::string& path) const;

  std::size_t family_count() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;  // sorted by key
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    HistogramOptions hist_options;
    // Keyed by the serialized label signature; series are never erased.
    std::map<std::string, std::unique_ptr<Series>> series;
  };

  Family& family_locked(const std::string& name, Kind kind,
                        const std::string& help,
                        const HistogramOptions* options);
  Series& series_locked(Family& family, const Labels& labels);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace metrics
}  // namespace pimnw
