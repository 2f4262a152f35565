#include "util/trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "util/logging.hpp"

namespace pimnw::trace {
namespace {

std::atomic<bool> g_enabled{false};

/// One thread's event buffer. Single writer (the owning thread); read only
/// by the exporter, which the API contract keeps off the recording window.
struct Buffer {
  std::vector<Event> events;
  std::uint32_t tid = 0;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Buffer>> buffers;      // all threads, ever
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string> lanes;
  std::uint32_t next_tid = 0;
  std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives all threads
  return *r;
}

Buffer& local_buffer() {
  thread_local Buffer* buf = [] {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(std::make_unique<Buffer>());
    r.buffers.back()->tid = r.next_tid++;
    return r.buffers.back().get();
  }();
  return *buf;
}

void escape_json(std::ostream& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x", c);
          out << hex;
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  (void)registry();  // pin the origin before the first event
  g_enabled.store(on, std::memory_order_relaxed);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - registry().origin)
      .count();
}

void set_thread_name(const std::string& name) {
  // Recorded even while tracing is off: threads (pool workers) name their
  // lane once at startup, typically before anyone flips the toggle.
  Registry& r = registry();
  const std::uint32_t tid = local_buffer().tid;
  std::lock_guard<std::mutex> lock(r.mutex);
  r.lanes[{kHostPid, tid}] = name;
}

void set_modeled_lane_name(std::uint32_t tid, const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.lanes[{kModeledPid, tid}] = name;
}

void complete_span(std::string name, double ts_us, double dur_us) {
  if (!enabled()) return;
  Event e;
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  Buffer& buf = local_buffer();
  e.tid = buf.tid;
  buf.events.push_back(std::move(e));
}

void counter(std::string name, double value) {
  if (!enabled()) return;
  Event e;
  e.name = std::move(name);
  e.ts_us = now_us();
  e.phase = 'C';
  e.value = value;
  Buffer& buf = local_buffer();
  e.tid = buf.tid;
  buf.events.push_back(std::move(e));
}

void modeled_span(std::string name, std::uint32_t tid, double ts_us,
                  double dur_us, std::uint64_t cycles) {
  if (!enabled()) return;
  Event e;
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.pid = kModeledPid;
  e.tid = tid;
  e.cycles = cycles;
  local_buffer().events.push_back(std::move(e));
}

void modeled_counter(std::string name, double ts_us, double value) {
  if (!enabled()) return;
  Event e;
  e.name = std::move(name);
  e.ts_us = ts_us;
  e.phase = 'C';
  e.value = value;
  e.pid = kModeledPid;
  e.tid = 0;
  local_buffer().events.push_back(std::move(e));
}

std::vector<Event> snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<Event> all;
  for (const auto& buf : r.buffers) {
    all.insert(all.end(), buf->events.begin(), buf->events.end());
  }
  return all;
}

std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::string>>
lane_names() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return {r.lanes.begin(), r.lanes.end()};
}

void clear() {
  // Events only: lane names belong to long-lived threads (a pool worker
  // names its lane once, at startup) and stay valid across runs.
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& buf : r.buffers) buf->events.clear();
}

void write_json(std::ostream& out) {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  sep();
  out << R"({"ph":"M","pid":)" << kHostPid
      << R"x(,"tid":0,"name":"process_name","args":{"name":"host pipeline (wall clock)"}})x";
  sep();
  out << R"({"ph":"M","pid":)" << kHostPid
      << R"(,"tid":0,"name":"process_sort_index","args":{"sort_index":1}})";
  sep();
  out << R"({"ph":"M","pid":)" << kModeledPid
      << R"x(,"tid":0,"name":"process_name","args":{"name":"modeled PiM timeline (350 MHz)"}})x";
  sep();
  out << R"({"ph":"M","pid":)" << kModeledPid
      << R"(,"tid":0,"name":"process_sort_index","args":{"sort_index":2}})";
  for (const auto& [key, name] : lane_names()) {
    sep();
    out << R"({"ph":"M","pid":)" << key.first << R"(,"tid":)" << key.second
        << R"(,"name":"thread_name","args":{"name":")";
    escape_json(out, name);
    out << R"("}})";
    sep();
    out << R"({"ph":"M","pid":)" << key.first << R"(,"tid":)" << key.second
        << R"(,"name":"thread_sort_index","args":{"sort_index":)"
        << key.second << "}}";
  }
  for (const Event& e : snapshot()) {
    sep();
    out << R"({"ph":")" << e.phase << R"(","pid":)" << e.pid << R"(,"tid":)"
        << e.tid << R"(,"ts":)" << e.ts_us << R"(,"name":")";
    escape_json(out, e.name);
    out << '"';
    if (e.phase == 'X') out << R"(,"dur":)" << e.dur_us;
    if (e.phase == 'C') out << R"(,"args":{"value":)" << e.value << '}';
    if (e.phase == 'X' && e.cycles != 0) {
      out << R"(,"args":{"cycles":)" << e.cycles << '}';
    }
    out << '}';
  }
  out << "\n]}\n";
}

bool write_json_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    PIMNW_WARN("trace: cannot open " << path << " for writing");
    return false;
  }
  write_json(out);
  out.flush();
  if (!out) {
    PIMNW_WARN("trace: short write to " << path);
    return false;
  }
  return true;
}

}  // namespace pimnw::trace
