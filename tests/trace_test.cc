#include "base/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace ccdb {
namespace {

// The tracer is a process-wide singleton; each test restores a clean,
// disabled state.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().SetEnabled(false);
    Tracer::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  ASSERT_FALSE(Tracer::Global().enabled());
  {
    CCDB_TRACE_SPAN("disabled.span");
  }
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

TEST_F(TraceTest, EnabledRecordsCompleteSpan) {
  Tracer::Global().SetEnabled(true);
  {
    CCDB_TRACE_SPAN("unit.span");
  }
  ASSERT_EQ(Tracer::Global().size(), 1u);
  std::string json = Tracer::Global().ToChromeTraceJson();
  EXPECT_NE(json.find("\"unit.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TraceTest, NestedSpansBothRecorded) {
  Tracer::Global().SetEnabled(true);
  {
    CCDB_TRACE_SPAN("outer");
    {
      CCDB_TRACE_SPAN("inner");
    }
  }
  EXPECT_EQ(Tracer::Global().size(), 2u);
  std::string json = Tracer::Global().ToChromeTraceJson();
  // Destruction order records "inner" first; both must be present.
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
}

TEST_F(TraceTest, ChromeTraceJsonShape) {
  Tracer::Global().SetEnabled(true);
  {
    CCDB_TRACE_SPAN("shape.check");
  }
  std::string json = Tracer::Global().ToChromeTraceJson();
  // Top-level object with the traceEvents array, as chrome://tracing
  // expects.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  for (const char* field : {"\"name\"", "\"cat\"", "\"ph\"", "\"ts\"",
                            "\"dur\"", "\"pid\"", "\"tid\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Balanced braces/brackets — a cheap well-formedness check that catches
  // missing commas/terminators without a JSON parser dependency.
  int braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(TraceTest, WriteChromeTraceRoundTrips) {
  Tracer::Global().SetEnabled(true);
  {
    CCDB_TRACE_SPAN("file.span");
  }
  std::string path = ::testing::TempDir() + "/ccdb_trace_test.json";
  ASSERT_TRUE(Tracer::Global().WriteChromeTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), Tracer::Global().ToChromeTraceJson());
  std::remove(path.c_str());
}

TEST_F(TraceTest, ConcurrentSpansAllRecorded) {
  Tracer::Global().SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        CCDB_TRACE_SPAN("concurrent.span");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(Tracer::Global().size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  EXPECT_EQ(Tracer::Global().dropped(), 0u);
}

TEST_F(TraceTest, SpanCapturesEnabledAtConstruction) {
  // A span started while tracing is off must not record, even if tracing
  // turns on before it ends (whether it records is decided when it opens).
  {
    CCDB_TRACE_SPAN("straddling.span");
    Tracer::Global().SetEnabled(true);
  }
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

// A span is the engine's stopwatch even with tracing off: its elapsed time
// runs and never decreases, and closing it records nothing.
TEST_F(TraceTest, DisabledSpanStillTimes) {
  ASSERT_FALSE(Tracer::Global().enabled());
  {
    TraceSpan span("disabled.timed");
    std::int64_t last = span.ElapsedUs();
    EXPECT_GE(last, 0);
    for (int i = 0; i < 1000; ++i) {
      std::int64_t now = span.ElapsedUs();
      EXPECT_GE(now, last);
      last = now;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GE(span.ElapsedUs(), 2000);
  }
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

// The recorded event and ElapsedUs() are one clock: no read taken before
// the span closes exceeds the duration it records.
TEST_F(TraceTest, RecordedDurationCoversLastElapsedRead) {
  Tracer::Global().SetEnabled(true);
  std::int64_t last = 0;
  {
    TraceSpan span("timed.span");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    last = span.ElapsedUs();
  }
  std::vector<TraceEvent> events = Tracer::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "timed.span");
  EXPECT_GE(last, 1000);
  EXPECT_GE(events[0].duration_us, last);
}

TEST_F(TraceTest, ClearDiscardsEvents) {
  Tracer::Global().SetEnabled(true);
  {
    CCDB_TRACE_SPAN("cleared.span");
  }
  ASSERT_EQ(Tracer::Global().size(), 1u);
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().size(), 0u);
  EXPECT_TRUE(Tracer::Global().enabled());
}

TEST_F(TraceTest, ThreadIdsAreSmallAndStablePerThread) {
  std::uint64_t main_id_1 = TraceSpan::CurrentThreadId();
  std::uint64_t main_id_2 = TraceSpan::CurrentThreadId();
  EXPECT_EQ(main_id_1, main_id_2);
  std::atomic<std::uint64_t> other_id{main_id_1};
  std::thread other([&] { other_id = TraceSpan::CurrentThreadId(); });
  other.join();
  EXPECT_NE(other_id.load(), main_id_1);
}

}  // namespace
}  // namespace ccdb
