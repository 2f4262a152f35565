// Fault flight recorder (DESIGN.md §17).
//
// A bounded ring of recent events — flush records, warn/error log lines,
// faults, free-form notes — that can be dumped as a provenance-stamped
// JSON "black box" when something goes wrong: a PIMNW_CHECK failure (opt-in
// via arm_check_dump, so tests that intentionally provoke CheckError do not
// spew files), a deadline storm detected by the service, or an explicit
// trigger. Memory is bounded by the capacity; recording overwrites the oldest
// event. Recording is mutex-guarded — event rates are low (flushes, WARNs,
// faults), never per-pair hot paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pimnw {

enum class FlightEventKind { kFlush, kLog, kFault, kNote };

const char* flight_event_kind_name(FlightEventKind kind);

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 1024);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-global recorder that check/log hooks and service
  /// instrumentation feed. Tests may construct private instances.
  static FlightRecorder& global();

  void record(FlightEventKind kind, std::string message);

  /// Number of events currently held (<= capacity).
  std::size_t size() const;
  void clear();

  /// The black box: {"provenance": ..., "reason": ..., "dumped_at": ...,
  /// "events": [{"seq", "t_seconds", "kind", "message"}, ...]} with events in
  /// chronological order. `t_seconds` is monotone time since process start.
  std::string dump_json(const std::string& reason) const;

  /// Write dump_json to `path` (atomic tmp+rename). Returns false on I/O
  /// failure.
  bool dump_to_file(const std::string& path, const std::string& reason) const;

  /// Arm automatic dumping on PIMNW_CHECK failure: the first check failure
  /// after arming writes the black box to `path` before the CheckError is
  /// thrown, then disarms (one dump per arm, so a cascade of rethrows does
  /// not rewrite the file). An empty path disarms.
  void arm_check_dump(const std::string& path);
  bool check_dump_armed() const;

  /// Called by the check-failure hook. Records a kFault event and, if armed,
  /// dumps and disarms. Returns the path dumped to (empty if not armed).
  std::string on_check_failure(const std::string& description);

 private:
  struct Event {
    std::uint64_t seq = 0;
    double t_seconds = 0.0;
    FlightEventKind kind = FlightEventKind::kNote;
    std::string message;
  };

  void record_locked(FlightEventKind kind, std::string message);
  std::vector<Event> chronological_locked() const;

  mutable std::mutex mutex_;
  std::vector<Event> ring_;
  const std::size_t capacity_;
  std::size_t next_ = 0;   // ring write position
  std::uint64_t seq_ = 0;  // total events ever recorded
  std::string check_dump_path_;
};

/// Convenience: record into the global recorder.
void flight_record(FlightEventKind kind, std::string message);

}  // namespace pimnw
