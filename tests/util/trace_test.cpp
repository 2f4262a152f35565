#include "util/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace pimnw::trace {
namespace {

/// Events recorded since the last clear() whose name matches `name`.
std::vector<Event> events_named(const std::string& name) {
  std::vector<Event> found;
  for (const Event& e : snapshot()) {
    if (e.name == name) found.push_back(e);
  }
  return found;
}

TEST(TraceTest, DisabledByDefaultAndRecordsNothing) {
  clear();
  set_enabled(false);
  EXPECT_FALSE(enabled());
  complete_span("t1 ignored", 0.0, 1.0);
  counter("t1 ignored", 3.0);
  modeled_span("t1 ignored", 5, 0.0, 1.0);
  { PIMNW_TRACE_SPAN(std::string("t1 ignored")); }
  EXPECT_TRUE(events_named("t1 ignored").empty());
}

TEST(TraceTest, SpanMacroSkipsNameFormattingWhenDisabled) {
  clear();
  set_enabled(false);
  int evaluations = 0;
  auto make_name = [&evaluations] {
    ++evaluations;
    return std::string("t2 span");
  };
  { PIMNW_TRACE_SPAN(make_name()); }
  EXPECT_EQ(evaluations, 0);
  set_enabled(true);
  { PIMNW_TRACE_SPAN(make_name()); }
  set_enabled(false);
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(events_named("t2 span").size(), 1u);
  clear();
}

TEST(TraceTest, CompleteSpanRoundtrips) {
  clear();
  set_enabled(true);
  complete_span("t3 span", 125.0, 40.0);
  set_enabled(false);
  const auto found = events_named("t3 span");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].phase, 'X');
  EXPECT_EQ(found[0].pid, kHostPid);
  EXPECT_DOUBLE_EQ(found[0].ts_us, 125.0);
  EXPECT_DOUBLE_EQ(found[0].dur_us, 40.0);
  clear();
}

TEST(TraceTest, RaiiSpanMeasuresEnclosedWork) {
  clear();
  set_enabled(true);
  {
    Span span("t4 sleep");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  set_enabled(false);
  const auto found = events_named("t4 sleep");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_GE(found[0].dur_us, 4e3);  // slept >= ~5 ms
  clear();
}

TEST(TraceTest, CounterRecordsPhaseAndValue) {
  clear();
  set_enabled(true);
  counter("t5 counter", 17.5);
  set_enabled(false);
  const auto counters = events_named("t5 counter");
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].phase, 'C');
  EXPECT_DOUBLE_EQ(counters[0].value, 17.5);
  clear();
}

TEST(TraceTest, ModeledSpanCarriesVirtualTimeAndCycles) {
  clear();
  set_enabled(true);
  modeled_span("t6 modeled", 42, 1000.0, 250.0, 87500);
  set_enabled(false);
  const auto found = events_named("t6 modeled");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].pid, kModeledPid);
  EXPECT_EQ(found[0].tid, 42u);
  EXPECT_DOUBLE_EQ(found[0].ts_us, 1000.0);
  EXPECT_DOUBLE_EQ(found[0].dur_us, 250.0);
  EXPECT_EQ(found[0].cycles, 87500u);
  clear();
}

TEST(TraceTest, ThreadsRecordToTheirOwnLanes) {
  clear();
  set_enabled(true);
  complete_span("t7 main", 0.0, 1.0);
  std::thread other([] {
    set_thread_name("t7 other thread");
    complete_span("t7 other", 0.0, 1.0);
  });
  other.join();
  set_enabled(false);
  const auto main_events = events_named("t7 main");
  const auto other_events = events_named("t7 other");
  ASSERT_EQ(main_events.size(), 1u);
  ASSERT_EQ(other_events.size(), 1u);
  EXPECT_NE(main_events[0].tid, other_events[0].tid);
  // The spawned thread's lane name is registered under its host-pid tid.
  bool lane_found = false;
  for (const auto& [key, name] : lane_names()) {
    if (key.first == kHostPid && key.second == other_events[0].tid) {
      EXPECT_EQ(name, "t7 other thread");
      lane_found = true;
    }
  }
  EXPECT_TRUE(lane_found);
  clear();
}

TEST(TraceTest, ClearDropsEventsButKeepsLaneNames) {
  clear();
  set_enabled(true);
  set_modeled_lane_name(77, "t8 lane");
  complete_span("t8 span", 0.0, 1.0);
  set_enabled(false);
  ASSERT_EQ(events_named("t8 span").size(), 1u);
  clear();
  EXPECT_TRUE(events_named("t8 span").empty());
  bool lane_found = false;
  for (const auto& [key, name] : lane_names()) {
    lane_found = lane_found || (key.first == kModeledPid && key.second == 77 &&
                                name == "t8 lane");
  }
  EXPECT_TRUE(lane_found) << "clear() must not forget lane names";
}

TEST(TraceTest, WriteJsonEmitsLoadableChromeTrace) {
  clear();
  set_enabled(true);
  set_modeled_lane_name(9, "t9 \"quoted\"\nlane");
  complete_span("t9 wall", 10.0, 5.0);
  modeled_span("t9 model", 9, 0.0, 2.0, 700);
  counter("t9 count", 3.0);
  set_enabled(false);
  std::ostringstream out;
  write_json(out);
  const std::string json = out.str();
  // Structure: one traceEvents array, balanced braces, both process groups.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("host pipeline (wall clock)"), std::string::npos);
  EXPECT_NE(json.find("modeled PiM timeline (350 MHz)"), std::string::npos);
  // The events, with their payloads.
  EXPECT_NE(json.find("\"t9 wall\""), std::string::npos);
  EXPECT_NE(json.find("\"t9 model\""), std::string::npos);
  EXPECT_NE(json.find("\"cycles\":700"), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  // Lane-name metadata, with JSON special characters escaped.
  EXPECT_NE(json.find("t9 \\\"quoted\\\"\\nlane"), std::string::npos);
  clear();
}

}  // namespace
}  // namespace pimnw::trace
