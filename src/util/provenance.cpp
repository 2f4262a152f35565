#include "util/provenance.hpp"

#include <ctime>
#include <thread>

#ifndef PIMNW_GIT_SHA
#define PIMNW_GIT_SHA "unknown"
#endif
#ifndef PIMNW_BUILD_TYPE
#define PIMNW_BUILD_TYPE "unknown"
#endif

namespace pimnw {

const char* build_git_sha() { return PIMNW_GIT_SHA; }

const char* build_preset() { return PIMNW_BUILD_TYPE; }

std::string timestamp_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string provenance_json(const std::string& params_json,
                            const std::string& machine_json) {
  std::string out = "{ \"git_sha\": \"";
  out += build_git_sha();
  out += "\", \"build_type\": \"";
  out += build_preset();
  out += "\", \"timestamp\": \"";
  out += timestamp_utc();
  out += "\", \"params\": ";
  out += params_json.empty() ? "null" : params_json;
  if (!machine_json.empty()) {
    out += ", \"machine\": ";
    out += machine_json;
  }
  out += " }";
  return out;
}

std::string machine_json(std::size_t threads) {
  std::string out = "{ \"threads\": ";
  out += std::to_string(threads);
  out += ", \"hardware_threads\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += " }";
  return out;
}

}  // namespace pimnw
