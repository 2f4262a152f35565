#include "util/flight_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/provenance.hpp"

namespace pimnw {
namespace {

double monotone_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void write_json_escaped(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

const char* flight_event_kind_name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kFlush: return "flush";
    case FlightEventKind::kLog: return "log";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kNote: return "note";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

FlightRecorder& FlightRecorder::global() {
  // Leaked on purpose: the check-failure hook can fire during static
  // destruction of other objects.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::record_locked(FlightEventKind kind, std::string message) {
  Event event;
  event.seq = seq_++;
  event.t_seconds = monotone_seconds();
  event.kind = kind;
  event.message = std::move(message);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    next_ = ring_.size() % capacity_;
  } else {
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % capacity_;
  }
}

void FlightRecorder::record(FlightEventKind kind, std::string message) {
  std::lock_guard<std::mutex> lock(mutex_);
  record_locked(kind, std::move(message));
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
}

std::vector<FlightRecorder::Event> FlightRecorder::chronological_locked()
    const {
  std::vector<Event> events = ring_;
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.seq < b.seq; });
  return events;
}

std::string FlightRecorder::dump_json(const std::string& reason) const {
  std::vector<Event> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = chronological_locked();
  }
  std::ostringstream os;
  os << "{\n  \"provenance\": " << provenance_json() << ",\n";
  os << "  \"reason\": \"";
  write_json_escaped(os, reason);
  os << "\",\n";
  os << "  \"dumped_at_seconds\": " << monotone_seconds() << ",\n";
  os << "  \"events\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    os << "    {\"seq\": " << e.seq << ", \"t_seconds\": " << e.t_seconds
       << ", \"kind\": \"" << flight_event_kind_name(e.kind)
       << "\", \"message\": \"";
    write_json_escaped(os, e.message);
    os << "\"}";
    if (i + 1 < events.size()) os << ',';
    os << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  const std::string& reason) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << dump_json(reason);
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

void FlightRecorder::arm_check_dump(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  check_dump_path_ = path;
}

bool FlightRecorder::check_dump_armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !check_dump_path_.empty();
}

std::string FlightRecorder::on_check_failure(const std::string& description) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    record_locked(FlightEventKind::kFault, description);
    path.swap(check_dump_path_);  // one dump per arm
  }
  if (!path.empty()) {
    dump_to_file(path, "check_failure: " + description);
  }
  return path;
}

void flight_record(FlightEventKind kind, std::string message) {
  FlightRecorder::global().record(kind, std::move(message));
}

namespace detail {

// Declared in util/check.hpp; keeps check.hpp header-only while routing every
// check failure through the flight recorder.
void notify_check_fail(const std::string& description) {
  FlightRecorder::global().on_check_failure(description);
}

}  // namespace detail
}  // namespace pimnw
