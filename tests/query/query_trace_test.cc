#include "query/query_trace.h"

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/heap_stats.h"
#include "obs/metrics_registry.h"
#include "obs/request_context.h"
#include "util/clock.h"

namespace rased {
namespace {

QueryTrace MakeTrace(int64_t wall, int64_t device = 0) {
  QueryTrace trace;
  trace.summary = "test query";
  trace.wall_micros = wall;
  trace.stats.io.simulated_device_micros = device;
  trace.spans = {{"plan", wall / 2, 0}, {"fetch", wall - wall / 2, device}};
  return trace;
}

TEST(QueryTraceTest, RecordAssignsSequentialIds) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.Record(MakeTrace(10)), 1u);
  EXPECT_EQ(recorder.Record(MakeTrace(10)), 2u);
  EXPECT_EQ(recorder.total_recorded(), 2u);
}

TEST(QueryTraceTest, RingKeepsLastNOldestFirst) {
  TraceRecorderOptions options;
  options.capacity = 4;
  TraceRecorder recorder(options);
  for (int i = 0; i < 10; ++i) recorder.Record(MakeTrace(i));

  std::vector<QueryTrace> traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 4u);
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(traces[i].id, 7 + i);  // ids 7..10 survive, oldest first
  }
  EXPECT_EQ(recorder.total_recorded(), 10u);
}

TEST(QueryTraceTest, TracesKeepSpansAndDeviceTime) {
  TraceRecorder recorder;
  recorder.Record(MakeTrace(100, 40));
  std::vector<QueryTrace> traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].total_micros(), 140);
  ASSERT_EQ(traces[0].spans.size(), 2u);
  EXPECT_EQ(traces[0].spans[0].name, "plan");
  EXPECT_EQ(traces[0].spans[1].name, "fetch");
  EXPECT_EQ(traces[0].spans[1].device_micros, 40);
}

TEST(QueryTraceTest, SlowQueriesCountAgainstTheThreshold) {
  MetricsRegistry registry;
  TraceRecorderOptions options;
  options.slow_query_micros = 100;
  TraceRecorder recorder(options, &registry);

  recorder.Record(MakeTrace(50));        // fast
  recorder.Record(MakeTrace(100));       // exactly at threshold: not slow
  recorder.Record(MakeTrace(90, 20));    // wall + device = 110: slow
  recorder.Record(MakeTrace(101));       // slow

  EXPECT_EQ(registry.GetCounter("rased_traces_recorded_total", "")->value(),
            4u);
  EXPECT_EQ(registry.GetCounter("rased_slow_queries_total", "")->value(), 2u);
}

TEST(QueryTraceTest, NonPositiveThresholdDisablesSlowQueryAccounting) {
  MetricsRegistry registry;
  TraceRecorderOptions options;
  options.slow_query_micros = 0;
  TraceRecorder recorder(options, &registry);
  recorder.Record(MakeTrace(1000000000));
  EXPECT_EQ(registry.GetCounter("rased_slow_queries_total", "")->value(), 0u);
}

// The whole wall-clock side of tracing is driven by util/clock.h NowMicros;
// installing a FakeClock makes StopWatch (and therefore every wall metric)
// exactly assertable.
TEST(QueryTraceTest, FakeClockMakesStopWatchDeterministic) {
  FakeClock clock(1000);
  SetClockForTesting(&clock);
  StopWatch watch;
  EXPECT_EQ(watch.ElapsedMicros(), 0);
  clock.Advance(123);
  EXPECT_EQ(watch.ElapsedMicros(), 123);
  clock.Set(5000);
  EXPECT_EQ(watch.ElapsedMicros(), 4000);
  watch.Reset();
  EXPECT_EQ(watch.ElapsedMicros(), 0);
  SetClockForTesting(nullptr);
}

TEST(QueryTraceTest, ConcurrentRecordAndSnapshotStayConsistent) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  MetricsRegistry registry;
  TraceRecorderOptions options;
  options.capacity = 16;
  options.slow_query_micros = 0;  // keep the log quiet under the hammer
  TraceRecorder recorder(options, &registry);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      std::vector<QueryTrace> traces = recorder.Snapshot();
      EXPECT_LE(traces.size(), options.capacity);
      // Ids within one snapshot are strictly increasing (ring order).
      for (size_t i = 1; i < traces.size(); ++i) {
        EXPECT_LT(traces[i - 1].id, traces[i].id);
      }
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) recorder.Record(MakeTrace(i));
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(recorder.total_recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.GetCounter("rased_traces_recorded_total", "")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(recorder.Snapshot().size(), options.capacity);
}

TEST(QueryTraceTest, SlowQueryLogIsTokenBucketRateLimited) {
  FakeClock clock(1000000);
  SetClockForTesting(&clock);
  MetricsRegistry registry;
  TraceRecorderOptions options;
  options.slow_query_micros = 100;
  options.slow_log_per_sec = 1.0;
  TraceRecorder recorder(options, &registry);
  Counter* suppressed =
      registry.GetCounter("rased_slow_query_log_suppressed_total", "");

  // Burst of slow queries at one instant: the first line is emitted (the
  // bucket starts full), the rest are suppressed and counted.
  recorder.Record(MakeTrace(500));
  recorder.Record(MakeTrace(500));
  recorder.Record(MakeTrace(500));
  EXPECT_EQ(registry.GetCounter("rased_slow_queries_total", "")->value(), 3u);
  EXPECT_EQ(suppressed->value(), 2u);

  // Half a second refills half a token: still suppressed.
  clock.Advance(500000);
  recorder.Record(MakeTrace(500));
  EXPECT_EQ(suppressed->value(), 3u);

  // Another half second completes the refill: the next slow query logs
  // again (carrying the suppressed count) and nothing new is suppressed.
  clock.Advance(500000);
  recorder.Record(MakeTrace(500));
  EXPECT_EQ(suppressed->value(), 3u);
  EXPECT_EQ(registry.GetCounter("rased_slow_queries_total", "")->value(), 5u);
  SetClockForTesting(nullptr);
}

TEST(QueryTraceTest, NonPositiveRateDisablesTheLogLimiter) {
  FakeClock clock(1000000);
  SetClockForTesting(&clock);
  MetricsRegistry registry;
  TraceRecorderOptions options;
  options.slow_query_micros = 100;
  options.slow_log_per_sec = 0;  // unlimited: every slow query logs
  TraceRecorder recorder(options, &registry);
  for (int i = 0; i < 5; ++i) recorder.Record(MakeTrace(500));
  EXPECT_EQ(registry.GetCounter("rased_slow_queries_total", "")->value(), 5u);
  EXPECT_EQ(
      registry.GetCounter("rased_slow_query_log_suppressed_total", "")->value(),
      0u);
  SetClockForTesting(nullptr);
}

TEST(QueryTraceTest, FastQueriesNeverTouchTheLimiter) {
  FakeClock clock(1000000);
  SetClockForTesting(&clock);
  MetricsRegistry registry;
  TraceRecorderOptions options;
  options.slow_query_micros = 1000;
  TraceRecorder recorder(options, &registry);
  // Fast queries consume no tokens; a later slow one still logs first-try.
  for (int i = 0; i < 10; ++i) recorder.Record(MakeTrace(10));
  recorder.Record(MakeTrace(5000));
  EXPECT_EQ(
      registry.GetCounter("rased_slow_query_log_suppressed_total", "")->value(),
      0u);
  SetClockForTesting(nullptr);
}

TEST(QueryTraceTest, TracesCarryAllocAttribution) {
  TraceRecorder recorder;
  QueryTrace trace = MakeTrace(100);
  trace.stats.alloc_bytes = 4096;
  trace.stats.alloc_ops = 17;
  trace.stats.peak_alloc_bytes = 2048;
  recorder.Record(trace);
  std::vector<QueryTrace> traces = recorder.Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].stats.alloc_bytes, 4096u);
  EXPECT_EQ(traces[0].stats.alloc_ops, 17u);
  EXPECT_EQ(traces[0].stats.peak_alloc_bytes, 2048u);
}

// Once every slot has held a trace of this shape, recording copies into
// the slots' own string and span storage: the ring allocates nothing.
TEST(QueryTraceTest, WrappedRingRecordsWithoutAllocating) {
  TraceRecorderOptions options;
  options.capacity = 8;
  options.slow_query_micros = 0;
  TraceRecorder recorder(options);
  auto same_shape = [](int i) {
    QueryTrace trace = MakeTrace(i);
    trace.summary = std::string(100, 'q');  // past the short-string buffer
    return trace;
  };
  for (size_t i = 0; i < 2 * options.capacity; ++i) {
    recorder.Record(same_shape(static_cast<int>(i)));
  }
  std::vector<QueryTrace> traces;
  traces.reserve(1000);
  for (int i = 0; i < 1000; ++i) traces.push_back(same_shape(i));

  ResourceScope scope;
  for (const QueryTrace& trace : traces) recorder.Record(trace);
  EXPECT_EQ(scope.Usage().alloc_ops, 0u);
  EXPECT_EQ(recorder.total_recorded(), 2 * options.capacity + 1000);
}

TEST(QueryTraceTest, MakeQueryTraceKeepsStatsAndAppendsRender) {
  AnalysisQuery query;
  query.group_country = true;
  QueryResult result;
  result.stats.cpu_micros = 70;
  result.stats.io.simulated_device_micros = 30;
  result.stats.cubes_total = 5;
  result.stats.epoch = 9;
  result.stats.alloc_ops = 11;
  result.spans = {{"plan", 20, 0}, {"fetch", 50, 30}};

  ScopedRequestContext request(0xabc);
  const QueryTrace trace = MakeQueryTrace(query, std::move(result), 15);
  EXPECT_EQ(trace.trace_id, 0xabcu);
  EXPECT_EQ(trace.summary, query.ToString());
  EXPECT_EQ(trace.wall_micros, 85);
  EXPECT_EQ(trace.device_micros(), 30);
  EXPECT_EQ(trace.total_micros(), 115);
  EXPECT_EQ(trace.stats.cubes_total, 5u);
  EXPECT_EQ(trace.stats.epoch, 9u);
  EXPECT_EQ(trace.stats.alloc_ops, 11u);
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.spans[1].device_micros, 30);
  EXPECT_EQ(trace.spans[2].name, "render");
  EXPECT_EQ(trace.spans[2].wall_micros, 15);
}

}  // namespace
}  // namespace rased
