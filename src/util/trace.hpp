// Low-overhead tracing for the host execution engine (ISSUE 3,
// DESIGN.md "Observability").
//
// Two track groups, distinguished by the Chrome-trace "pid":
//
//  * kHostPid — the *host pipeline*: wall-clock RAII spans recorded by the
//    thread that does the work (batch build, per-DPU exec/steal, sequenced
//    commit), one lane per recording thread. Lanes are named by the thread
//    (`set_thread_name`), so pool workers show up as "worker N" and the
//    orchestrator as "engine".
//
//  * kModeledPid — the *modeled PiM timeline*: spans with explicit virtual
//    timestamps reconstructed by the engine's commit stage from the cost
//    models (per-rank transfer/launch lanes, per-DPU lanes with modeled
//    cycles at 350 MHz). These are paper-style Gantt charts of LPT quality;
//    they share the JSON file but run on modeled time, not wall time.
//
// Events land in per-thread buffers: registration takes the registry mutex
// once per thread, appends are plain vector pushes (single writer — the
// owning thread), and nothing is shared until export. Recording is gated on
// one relaxed atomic load; when tracing is off a span costs that load and
// nothing else (the PIMNW_TRACE_SPAN macro skips even the name formatting).
// The runtime toggle is the only telemetry switch in the tree (the metrics
// registry is always on); tracing stays opt-in because its buffers grow
// without bound.
//
// Exporting (`write_json`) must not race recording: call it after the run
// under observation has completed, as bench/host_throughput and the
// pimnw_trace example do. The output is the Chrome trace event format, which
// https://ui.perfetto.dev loads directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace pimnw::trace {

/// Track groups ("processes" in the Chrome trace model).
inline constexpr std::uint32_t kHostPid = 1;
inline constexpr std::uint32_t kModeledPid = 2;

struct Event {
  std::string name;
  double ts_us = 0.0;   // wall μs since recorder origin, or modeled μs
  double dur_us = 0.0;  // 'X' spans only
  std::uint32_t pid = kHostPid;
  std::uint32_t tid = 0;
  char phase = 'X';  // 'X' complete span, 'C' counter
  double value = 0.0;              // 'C' events
  std::uint64_t cycles = 0;        // modeled DPU cycles (args.cycles if != 0)
};

/// Runtime toggle. Off by default; flipping it on mid-run is safe (spans
/// check once, at construction).
bool enabled();
void set_enabled(bool on);

/// Wall-clock microseconds since the recorder's origin (first use).
double now_us();

/// Name the calling thread's host-pipeline lane. Idempotent; cheap enough to
/// call unconditionally (no-op while tracing is disabled).
void set_thread_name(const std::string& name);

/// Name a modeled-timeline lane (tid within kModeledPid).
void set_modeled_lane_name(std::uint32_t tid, const std::string& name);

/// Record a completed wall-clock span on the calling thread's lane.
/// This and the recorders below are no-ops while tracing is disabled.
void complete_span(std::string name, double ts_us, double dur_us);

/// Record a monotonic-counter sample on the calling thread's lane.
void counter(std::string name, double value);

/// Record a span on a modeled-timeline lane with explicit virtual
/// timestamps. `cycles`, when nonzero, is exported as args.cycles so
/// modeled-cycle totals can be recovered from the trace exactly.
void modeled_span(std::string name, std::uint32_t tid, double ts_us,
                  double dur_us, std::uint64_t cycles = 0);

/// Record a counter-track sample on the modeled timeline (tid 0 of
/// kModeledPid) at an explicit virtual timestamp — the profiler's pipeline
/// utilisation / MRAM-stall tracks (DESIGN.md §12).
void modeled_counter(std::string name, double ts_us, double value);

/// Merged copy of every thread's events (test/export API — must not race
/// active recording).
std::vector<Event> snapshot();

/// Lane names as ((pid, tid), name) pairs.
std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::string>>
lane_names();

/// Drop all recorded events (lane names and buffers stay registered —
/// they belong to long-lived threads).
void clear();

/// Write the Chrome trace event JSON. Returns false (and logs) on I/O error.
void write_json(std::ostream& out);
bool write_json_file(const std::string& path);

/// RAII wall-clock span on the calling thread's host lane. Inactive (and
/// name never touched) when tracing was disabled at construction.
class Span {
 public:
  explicit Span(std::string name)
      : active_(enabled()), name_(active_ ? std::move(name) : std::string()) {
    if (active_) start_us_ = now_us();
  }
  ~Span() {
    if (active_) complete_span(std::move(name_), start_us_,
                               now_us() - start_us_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  double start_us_ = 0.0;
  std::string name_;
};

}  // namespace pimnw::trace

// Macro layer: evaluates the name expression only when tracing is enabled.
#define PIMNW_TRACE_CONCAT_(a, b) a##b
#define PIMNW_TRACE_CONCAT(a, b) PIMNW_TRACE_CONCAT_(a, b)
#define PIMNW_TRACE_SPAN(name_expr)                            \
  ::pimnw::trace::Span PIMNW_TRACE_CONCAT(pimnw_trace_span_,   \
                                          __LINE__)(           \
      ::pimnw::trace::enabled() ? (name_expr) : std::string())
