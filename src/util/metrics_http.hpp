// Minimal embedded HTTP scrape endpoint for the metrics registry
// (DESIGN.md §17).
//
// One listener thread on 127.0.0.1 serving exactly two routes:
//   GET /metrics  -> Prometheus text exposition of a MetricsRegistry
//   GET /healthz  -> 200 "ok"
// Anything else is 404. Connections are handled sequentially on the listener
// thread — a scrape is a single small response, and this endpoint is for one
// Prometheus scraper, not user traffic. Each accepted connection gets a 1 s
// receive timeout, so a client that connects and sends nothing delays other
// scrapes and stop() by at most that long.
//
// Port 0 binds an ephemeral port (readable via port() after start), which is
// what the verify.sh smoke and tests use to avoid collisions. If binding
// fails the caller falls back to MetricsRegistry::write_file snapshots.
#pragma once

#include <atomic>
#include <string>
#include <thread>

namespace pimnw {
namespace metrics {

class MetricsRegistry;

class MetricsHttpServer {
 public:
  /// Scrapes `registry`, or the process-global registry when null.
  explicit MetricsHttpServer(MetricsRegistry* registry = nullptr);
  ~MetricsHttpServer();
  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start serving. Returns false
  /// (with a WARN log) if the socket cannot be bound; the server is then
  /// inert and stop() is a no-op.
  bool start(int port);

  /// The bound port, or 0 when not running.
  int port() const { return port_; }
  bool running() const { return listen_fd_ >= 0; }

  /// Shut the listener down and join the thread. Idempotent.
  void stop();

 private:
  void serve_loop();

  MetricsRegistry* registry_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;
};

}  // namespace metrics
}  // namespace pimnw
