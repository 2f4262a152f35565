// Tests for the metrics registry (util/metrics.hpp, DESIGN.md §17):
// sharded counters, log-bucketed histograms (boundary arithmetic, merge
// associativity, quantile estimation), SLO burn windows, Prometheus
// exposition determinism and purity, and the embedded scrape endpoint —
// including a scrape-while-recording hammer that the tsan preset runs and a
// silent client that must not block stop().
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/metrics_http.hpp"

namespace pimnw {
namespace metrics {
namespace {

TEST(MetricsCounter, SumsAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  c.add(42);
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread + 42);
}

TEST(MetricsGauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.add(-1.25);
  EXPECT_EQ(g.value(), 2.25);
  g.add(0.75);
  EXPECT_EQ(g.value(), 3.0);
}

TEST(MetricsHistogram, BucketBoundaries) {
  // Integer bounds so the (lo, hi] boundary arithmetic is exactly pinnable:
  // bucket i takes samples in (2^(i-1), 2^i] (times min_bound = 1).
  HistogramOptions opt;
  opt.min_bound = 1.0;
  opt.growth = 2.0;
  opt.bucket_count = 10;
  Histogram h(opt);
  EXPECT_EQ(h.bucket_index(-1.0), 0);
  EXPECT_EQ(h.bucket_index(0.0), 0);
  EXPECT_EQ(h.bucket_index(0.5), 0);
  EXPECT_EQ(h.bucket_index(1.0), 0);   // == min_bound: inclusive
  EXPECT_EQ(h.bucket_index(1.01), 1);
  EXPECT_EQ(h.bucket_index(2.0), 1);   // upper bounds are inclusive
  EXPECT_EQ(h.bucket_index(2.01), 2);
  EXPECT_EQ(h.bucket_index(4.0), 2);
  EXPECT_EQ(h.bucket_index(1024.0), 10);    // == last finite bound -> overflow
  EXPECT_EQ(h.bucket_index(512.0), 9);
  EXPECT_EQ(h.bucket_index(1.0e12), 10);    // far overflow clamps
  // The invariant holds at every exact power-of-growth boundary.
  for (int i = 1; i < opt.bucket_count; ++i) {
    const double bound = opt.min_bound * std::pow(opt.growth, i);
    EXPECT_EQ(h.bucket_index(bound), i) << "bound " << bound;
    EXPECT_EQ(h.bucket_index(bound * 1.0000001), i + 1) << "bound " << bound;
  }
}

TEST(MetricsHistogram, DefaultOptionsBoundaryInvariant) {
  Histogram h;
  const HistogramOptions& opt = h.options();
  for (int i = 0; i < opt.bucket_count; ++i) {
    const double bound = opt.min_bound * std::pow(opt.growth, i);
    const int idx = h.bucket_index(bound);
    // A sample equal to an upper bound never lands above that bucket.
    EXPECT_LE(idx, i) << "bound " << bound;
    EXPECT_GE(idx, i == 0 ? 0 : i - 1) << "bound " << bound;
  }
}

TEST(MetricsHistogram, QuantileEstimation) {
  HistogramOptions opt;
  opt.min_bound = 1.0;
  opt.growth = 2.0;
  opt.bucket_count = 12;
  Histogram h(opt);
  EXPECT_EQ(h.snapshot().quantile(0.5), 0.0);  // empty -> 0
  for (int i = 0; i < 100; ++i) h.record(3.0);  // all in bucket 2: (2, 4]
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.sum, 300.0);
  // Every quantile of a single-bucket population stays inside that bucket.
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double est = snap.quantile(q);
    EXPECT_GT(est, 2.0) << "q=" << q;
    EXPECT_LE(est, 4.0) << "q=" << q;
  }
  // Overflow samples are attributed the last finite bound (a lower bound).
  Histogram over(opt);
  over.record(1.0e9);
  EXPECT_DOUBLE_EQ(over.snapshot().quantile(0.5), over.snapshot().upper_bound(
                                                      opt.bucket_count - 1));
}

TEST(MetricsHistogram, MergeAssociativeAndCommutative) {
  HistogramOptions opt;
  opt.min_bound = 1.0;
  opt.growth = 2.0;
  opt.bucket_count = 8;
  Histogram ha(opt), hb(opt), hc(opt);
  for (int i = 0; i < 10; ++i) ha.record(1.5);
  for (int i = 0; i < 20; ++i) hb.record(100.0);
  for (int i = 0; i < 5; ++i) hc.record(1.0e9);  // overflow
  const auto a = ha.snapshot(), b = hb.snapshot(), c = hc.snapshot();

  const auto ab_c = HistogramSnapshot::merge(HistogramSnapshot::merge(a, b), c);
  const auto a_bc = HistogramSnapshot::merge(a, HistogramSnapshot::merge(b, c));
  const auto ba_c = HistogramSnapshot::merge(HistogramSnapshot::merge(b, a), c);
  EXPECT_EQ(ab_c.counts, a_bc.counts);
  EXPECT_EQ(ab_c.counts, ba_c.counts);
  EXPECT_EQ(ab_c.count, 35u);
  EXPECT_DOUBLE_EQ(ab_c.sum, a_bc.sum);
  EXPECT_DOUBLE_EQ(ab_c.sum, 10 * 1.5 + 20 * 100.0 + 5 * 1.0e9);

  HistogramOptions other = opt;
  other.bucket_count = 9;
  Histogram hd(other);
  EXPECT_THROW(HistogramSnapshot::merge(a, hd.snapshot()), CheckError);
}

TEST(MetricsSloBurn, WindowAndBurnRate) {
  // 60 s window, 6 buckets of 10 s, 99% objective.
  SloBurnWindow slo(60.0, 0.99, 6);
  EXPECT_EQ(slo.total(0.0), 0u);
  EXPECT_EQ(slo.miss_ratio(0.0), 0.0);
  for (int i = 0; i < 99; ++i) slo.record(1.0, true);
  slo.record(1.0, false);
  EXPECT_EQ(slo.total(5.0), 100u);
  EXPECT_EQ(slo.bad(5.0), 1u);
  EXPECT_DOUBLE_EQ(slo.miss_ratio(5.0), 0.01);
  // Missing exactly at the error budget burns at rate 1.0.
  EXPECT_NEAR(slo.burn_rate(5.0), 1.0, 1e-9);
  // Batched counts land like repeated singles.
  slo.record(15.0, false, 100);
  EXPECT_EQ(slo.bad(15.0), 101u);
  // Everything ages out once `now` moves a full window past the events.
  EXPECT_EQ(slo.total(200.0), 0u);
  EXPECT_EQ(slo.burn_rate(200.0), 0.0);
}

TEST(MetricsRegistry, StableHandlesAndTypeChecks) {
  MetricsRegistry reg;
  Counter& a = reg.counter("pairs_total", "help", {{"backend", "pim"}});
  Counter& b = reg.counter("pairs_total", "help", {{"backend", "pim"}});
  EXPECT_EQ(&a, &b);  // get-or-create returns the same series
  Counter& other = reg.counter("pairs_total", "help", {{"backend", "cpu"}});
  EXPECT_NE(&a, &other);
  // Label order is normalised: both spellings are one series.
  Gauge& g1 = reg.gauge("depth", "h", {{"x", "1"}, {"a", "2"}});
  Gauge& g2 = reg.gauge("depth", "h", {{"a", "2"}, {"x", "1"}});
  EXPECT_EQ(&g1, &g2);
  EXPECT_EQ(reg.family_count(), 2u);
  // Re-registering a name as a different type is API misuse.
  EXPECT_THROW(reg.gauge("pairs_total", "help"), CheckError);
  HistogramOptions opt;
  reg.histogram("lat", "h", {}, opt);
  HistogramOptions different = opt;
  different.bucket_count = opt.bucket_count + 1;
  EXPECT_THROW(reg.histogram("lat", "h", {}, different), CheckError);
}

TEST(MetricsRegistry, PrometheusExpositionDeterministicAndPure) {
  MetricsRegistry reg;
  reg.counter("zz_total", "last family", {}).add(7);
  Counter& pim = reg.counter("pairs_total", "routed pairs",
                             {{"backend", "pim"}});
  pim.add(3);
  reg.counter("pairs_total", "routed pairs", {{"backend", "cpu"}}).add(1);
  reg.gauge("queue_depth", "queued pairs").set(5.0);
  HistogramOptions opt;
  opt.min_bound = 1.0;
  opt.growth = 2.0;
  opt.bucket_count = 3;
  Histogram& h = reg.histogram("wait_seconds", "queue wait", {}, opt);
  h.record(1.5);
  h.record(100.0);  // overflow

  const std::string text = reg.scrape();
  EXPECT_NE(text.find("# HELP pairs_total routed pairs\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pairs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("pairs_total{backend=\"cpu\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("pairs_total{backend=\"pim\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 5\n"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("wait_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("wait_seconds_count 2\n"), std::string::npos);
  // Families come out sorted by name, so output is deterministic.
  EXPECT_LT(text.find("pairs_total"), text.find("queue_depth"));
  EXPECT_LT(text.find("queue_depth"), text.find("zz_total"));
  // Scraping is a pure observer: nothing moves, the next scrape is identical.
  EXPECT_EQ(reg.scrape(), text);
  EXPECT_EQ(pim.value(), 3u);

  const std::string path = ::testing::TempDir() + "metrics_snapshot.prom";
  ASSERT_TRUE(reg.write_file(path));
  std::ifstream in(path);
  std::stringstream file_text;
  file_text << in.rdbuf();
  EXPECT_EQ(file_text.str(), text);
  std::remove(path.c_str());
}

TEST(MetricsRegistry, LabelValueEscaping) {
  MetricsRegistry reg;
  reg.counter("esc_total", "h", {{"path", "a\"b\\c\nd"}}).add(1);
  const std::string text = reg.scrape();
  EXPECT_NE(text.find("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

/// A loopback TCP connection to `port`; -1 on failure.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Blocking loopback GET returning the raw response (empty on failure).
std::string http_get(int port, const std::string& path) {
  const int fd = connect_loopback(port);
  if (fd < 0) return std::string();
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttp, ServesMetricsAndHealthz) {
  MetricsRegistry reg;
  reg.counter("http_smoke_total", "h").add(9);
  MetricsHttpServer server(&reg);
  ASSERT_TRUE(server.start(0));  // ephemeral port
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("http_smoke_total 9\n"), std::string::npos);
  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);
  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(MetricsHttp, ScrapeWhileRecording) {
  // The tsan preset runs this: writers hammer a counter + histogram in the
  // same registry the listener thread is scraping.
  MetricsRegistry reg;
  Counter& hot = reg.counter("hammer_total", "h");
  Histogram& lat = reg.histogram("hammer_seconds", "h");
  MetricsHttpServer server(&reg);
  ASSERT_TRUE(server.start(0));

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        hot.add();
        lat.record(1e-3);
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    const std::string response = http_get(server.port(), "/metrics");
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("hammer_total"), std::string::npos);
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  server.stop();
  // After the dust settles the counter equals the histogram's sample count.
  EXPECT_EQ(hot.value(), lat.snapshot().count);
}

TEST(MetricsHttp, IdleClientDoesNotBlockStop) {
  // A client that connects and never sends a request must not hold the
  // listener thread: stop() has to return within the receive timeout.
  MetricsRegistry reg;
  MetricsHttpServer server(&reg);
  ASSERT_TRUE(server.start(0));
  const int idle = connect_loopback(server.port());
  ASSERT_GE(idle, 0);
  // Let the listener accept the connection and block reading it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::future<void> stopped =
      std::async(std::launch::async, [&server] { server.stop(); });
  const bool returned =
      stopped.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  // On a regression, closing the client unblocks stop() so the test fails
  // instead of hanging.
  ::close(idle);
  stopped.wait();
  EXPECT_TRUE(returned) << "stop() blocked on a silent client";
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace metrics
}  // namespace pimnw
