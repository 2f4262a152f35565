#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace pimnw {
namespace metrics {
namespace {

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// CAS-add a double stored as its bit pattern in an atomic<uint64_t>.
void atomic_double_add(std::atomic<std::uint64_t>& bits, double delta) {
  std::uint64_t expected = bits.load(std::memory_order_relaxed);
  while (!bits.compare_exchange_weak(
      expected, double_bits(bits_double(expected) + delta),
      std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

void format_double(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

/// Prometheus label-value escaping: backslash, double quote, newline.
void write_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '\\') {
      os << "\\\\";
    } else if (c == '"') {
      os << "\\\"";
    } else if (c == '\n') {
      os << "\\n";
    } else {
      os << c;
    }
  }
}

Labels sorted_labels(const Labels& labels) {
  Labels out = labels;
  std::sort(out.begin(), out.end());
  return out;
}

/// Serialized signature used both as the series map key and (with an optional
/// extra label appended) as the exposition label block.
std::string label_block(const Labels& labels, const char* extra_key = nullptr,
                        const std::string& extra_value = std::string()) {
  if (labels.empty() && extra_key == nullptr) return std::string();
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) os << ',';
    first = false;
    os << key << "=\"";
    write_escaped(os, value);
    os << '"';
  }
  if (extra_key != nullptr) {
    if (!first) os << ',';
    os << extra_key << "=\"";
    write_escaped(os, extra_value);
    os << '"';
  }
  os << '}';
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Counter

Counter::Shard& Counter::shard_for_thread() noexcept {
  // Cheap per-thread shard choice: hash a thread-local's address once. The
  // counter stays correct whatever the distribution; sharding only spreads
  // contention.
  static thread_local const std::size_t slot =
      [] {
        static std::atomic<std::size_t> next{0};
        return next.fetch_add(1, std::memory_order_relaxed);
      }() %
      kShards;
  return shards_[slot];
}

// ---------------------------------------------------------------------------
// Gauge

void Gauge::set(double v) noexcept {
  bits_.store(double_bits(v), std::memory_order_relaxed);
}

void Gauge::add(double delta) noexcept { atomic_double_add(bits_, delta); }

double Gauge::value() const noexcept {
  return bits_double(bits_.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(HistogramOptions options)
    : options_(options),
      inv_log_growth_(1.0 / std::log(options.growth)),
      counts_(static_cast<std::size_t>(options.bucket_count) + 1) {
  PIMNW_CHECK(options_.min_bound > 0.0);
  PIMNW_CHECK(options_.growth > 1.0);
  PIMNW_CHECK(options_.bucket_count >= 1);
}

int Histogram::bucket_index(double value) const noexcept {
  if (!(value > options_.min_bound)) return 0;  // NaN and underflow -> 0
  // Smallest i with value <= min_bound * growth^i.
  const double exact = std::log(value / options_.min_bound) * inv_log_growth_;
  int idx = static_cast<int>(std::ceil(exact));
  if (idx < 0) idx = 0;
  if (idx > options_.bucket_count) idx = options_.bucket_count;
  // ceil(log(...)) can land one bucket low or high on exact boundaries
  // because of floating-point rounding; nudge until the invariant holds:
  // bucket i takes samples in (upper_bound(i-1), upper_bound(i)].
  while (idx < options_.bucket_count &&
         value > options_.min_bound * std::pow(options_.growth, idx)) {
    ++idx;
  }
  while (idx > 0 &&
         !(value > options_.min_bound * std::pow(options_.growth, idx - 1))) {
    --idx;
  }
  return idx;
}

void Histogram::record(double value) noexcept {
  counts_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_double_add(sum_bits_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.options = options_;
  snap.counts.resize(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = bits_double(sum_bits_.load(std::memory_order_relaxed));
  return snap;
}

double HistogramSnapshot::upper_bound(int i) const {
  return options.min_bound * std::pow(options.growth, i);
}

double HistogramSnapshot::quantile(double q) const {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Nearest-rank (1-based) target.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] >= rank) {
      const int bucket = static_cast<int>(i);
      if (bucket >= options.bucket_count) {
        // Overflow bucket: report the last finite bound (a lower bound).
        return upper_bound(options.bucket_count - 1);
      }
      const double hi = upper_bound(bucket);
      const double lo = bucket == 0 ? 0.0 : upper_bound(bucket - 1);
      const double frac = static_cast<double>(rank - seen) /
                          static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    seen += counts[i];
  }
  return upper_bound(options.bucket_count - 1);
}

HistogramSnapshot HistogramSnapshot::merge(const HistogramSnapshot& a,
                                           const HistogramSnapshot& b) {
  PIMNW_CHECK_MSG(a.options == b.options,
                  "histogram merge requires identical bucket options");
  PIMNW_CHECK(a.counts.size() == b.counts.size());
  HistogramSnapshot out;
  out.options = a.options;
  out.counts.resize(a.counts.size());
  for (std::size_t i = 0; i < a.counts.size(); ++i) {
    out.counts[i] = a.counts[i] + b.counts[i];
  }
  out.count = a.count + b.count;
  out.sum = a.sum + b.sum;
  return out;
}

// ---------------------------------------------------------------------------
// SloBurnWindow

SloBurnWindow::SloBurnWindow(double window_seconds, double objective,
                             int bucket_count)
    : bucket_seconds_(window_seconds / bucket_count), objective_(objective) {
  PIMNW_CHECK(window_seconds > 0.0);
  PIMNW_CHECK(bucket_count >= 1);
  PIMNW_CHECK(objective > 0.0 && objective < 1.0);
  ring_.resize(static_cast<std::size_t>(bucket_count));
}

void SloBurnWindow::record(double now_seconds, bool good,
                           std::uint64_t count) {
  const std::int64_t epoch =
      static_cast<std::int64_t>(std::floor(now_seconds / bucket_seconds_));
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& b = ring_[static_cast<std::size_t>(
      ((epoch % static_cast<std::int64_t>(ring_.size())) +
       static_cast<std::int64_t>(ring_.size())) %
      static_cast<std::int64_t>(ring_.size()))];
  if (b.epoch != epoch) {
    b.epoch = epoch;
    b.good = 0;
    b.bad = 0;
  }
  if (good) {
    b.good += count;
  } else {
    b.bad += count;
  }
}

void SloBurnWindow::sum_window(double now_seconds, std::uint64_t* good_out,
                               std::uint64_t* bad_out) const {
  const std::int64_t now_epoch =
      static_cast<std::int64_t>(std::floor(now_seconds / bucket_seconds_));
  const std::int64_t oldest =
      now_epoch - static_cast<std::int64_t>(ring_.size()) + 1;
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Bucket& b : ring_) {
    if (b.epoch >= oldest && b.epoch <= now_epoch) {
      good += b.good;
      bad += b.bad;
    }
  }
  *good_out = good;
  *bad_out = bad;
}

double SloBurnWindow::miss_ratio(double now_seconds) const {
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  sum_window(now_seconds, &good, &bad);
  const std::uint64_t total = good + bad;
  if (total == 0) return 0.0;
  return static_cast<double>(bad) / static_cast<double>(total);
}

double SloBurnWindow::burn_rate(double now_seconds) const {
  return miss_ratio(now_seconds) / (1.0 - objective_);
}

std::uint64_t SloBurnWindow::total(double now_seconds) const {
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  sum_window(now_seconds, &good, &bad);
  return good + bad;
}

std::uint64_t SloBurnWindow::bad(double now_seconds) const {
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  sum_window(now_seconds, &good, &bad);
  return bad;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrumentation sites cache series pointers in
  // function-local statics and may fire during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Family& MetricsRegistry::family_locked(
    const std::string& name, Kind kind, const std::string& help,
    const HistogramOptions* options) {
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.kind = kind;
    family.help = help;
    if (options != nullptr) family.hist_options = *options;
  } else {
    PIMNW_CHECK_MSG(family.kind == kind,
                    "metric family re-registered with a different type: "
                        << name);
    if (options != nullptr) {
      PIMNW_CHECK_MSG(family.hist_options == *options,
                      "histogram family re-registered with different bucket "
                      "options: "
                          << name);
    }
  }
  return family;
}

MetricsRegistry::Series& MetricsRegistry::series_locked(Family& family,
                                                        const Labels& labels) {
  Labels sorted = sorted_labels(labels);
  const std::string key = label_block(sorted);
  auto [it, inserted] = family.series.try_emplace(key);
  if (inserted) {
    it->second = std::make_unique<Series>();
    it->second->labels = std::move(sorted);
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_locked(name, Kind::kCounter, help, nullptr);
  Series& series = series_locked(family, labels);
  if (!series.counter) series.counter = std::make_unique<Counter>();
  return *series.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_locked(name, Kind::kGauge, help, nullptr);
  Series& series = series_locked(family, labels);
  if (!series.gauge) series.gauge = std::make_unique<Gauge>();
  return *series.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      const Labels& labels,
                                      HistogramOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_locked(name, Kind::kHistogram, help, &options);
  Series& series = series_locked(family, labels);
  if (!series.histogram) {
    series.histogram = std::make_unique<Histogram>(options);
  }
  return *series.histogram;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, family] : families_) {
    os << "# HELP " << name << ' ' << family.help << '\n';
    os << "# TYPE " << name << ' '
       << (family.kind == Kind::kCounter
               ? "counter"
               : family.kind == Kind::kGauge ? "gauge" : "histogram")
       << '\n';
    for (const auto& [key, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          os << name << key << ' ' << series->counter->value() << '\n';
          break;
        case Kind::kGauge:
          os << name << key << ' ';
          format_double(os, series->gauge->value());
          os << '\n';
          break;
        case Kind::kHistogram: {
          const HistogramSnapshot snap = series->histogram->snapshot();
          std::uint64_t cumulative = 0;
          for (int i = 0; i < snap.options.bucket_count; ++i) {
            cumulative += snap.counts[static_cast<std::size_t>(i)];
            os << name << "_bucket"
               << label_block(series->labels, "le",
                              [&] {
                                std::ostringstream b;
                                format_double(b, snap.upper_bound(i));
                                return b.str();
                              }())
               << ' ' << cumulative << '\n';
          }
          cumulative += snap.counts.back();
          os << name << "_bucket"
             << label_block(series->labels, "le", "+Inf") << ' ' << cumulative
             << '\n';
          os << name << "_sum" << key << ' ';
          format_double(os, snap.sum);
          os << '\n';
          os << name << "_count" << key << ' ' << snap.count << '\n';
          break;
        }
      }
    }
  }
}

std::string MetricsRegistry::scrape() const {
  std::ostringstream os;
  write_prometheus(os);
  return os.str();
}

bool MetricsRegistry::write_file(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    write_prometheus(out);
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::size_t MetricsRegistry::family_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return families_.size();
}

}  // namespace metrics
}  // namespace pimnw
