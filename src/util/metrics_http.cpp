#include "util/metrics_http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>

#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace pimnw {
namespace metrics {
namespace {

constexpr int kRecvTimeoutSeconds = 1;

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;  // peer went away; nothing to do
    sent += static_cast<std::size_t>(n);
  }
}

std::string http_response(int code, const char* status,
                          const char* content_type, const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << code << ' ' << status << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n"
     << "\r\n"
     << body;
  return os.str();
}

/// Path component of "GET /metrics HTTP/1.1"; empty on parse failure.
std::string request_path(const std::string& request) {
  const std::size_t method_end = request.find(' ');
  if (method_end == std::string::npos) return std::string();
  const std::size_t path_end = request.find(' ', method_end + 1);
  if (path_end == std::string::npos) return std::string();
  return request.substr(method_end + 1, path_end - method_end - 1);
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::global()) {}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

bool MetricsHttpServer::start(int port) {
  if (listen_fd_ >= 0) return true;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    PIMNW_WARN("metrics endpoint disabled: socket() failed: "
               << std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    PIMNW_WARN("metrics endpoint disabled: cannot bind 127.0.0.1:"
               << port << ": " << std::strerror(errno));
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = port;
  }
  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { serve_loop(); });
  return true;
}

void MetricsHttpServer::serve_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      if (errno == EINTR) continue;
      break;  // listener socket gone
    }
    // A client that connects and never sends must not hold the listener:
    // scrapes are served one at a time, and stop() joins this thread.
    const timeval timeout{kRecvTimeoutSeconds, 0};
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    char buf[2048];
    const ssize_t n = ::recv(conn, buf, sizeof(buf) - 1, 0);
    if (n > 0) {
      buf[n] = '\0';
      const std::string path = request_path(buf);
      if (path == "/metrics") {
        send_all(conn, http_response(200, "OK",
                                     "text/plain; version=0.0.4",
                                     registry_->scrape()));
      } else if (path == "/healthz") {
        send_all(conn, http_response(200, "OK", "text/plain", "ok\n"));
      } else {
        send_all(conn,
                 http_response(404, "Not Found", "text/plain", "not found\n"));
      }
    }
    ::close(conn);
  }
}

void MetricsHttpServer::stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true, std::memory_order_relaxed);
  // shutdown() wakes the blocking accept(); close() alone is not reliable for
  // that on Linux.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = 0;
}

}  // namespace metrics
}  // namespace pimnw
