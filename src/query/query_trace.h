#ifndef RASED_QUERY_QUERY_TRACE_H_
#define RASED_QUERY_QUERY_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"
#include "query/analysis_query.h"
#include "util/thread_annotations.h"

namespace rased {

/// A completed query's trace: identity, the executor's QueryStats, and the
/// per-stage spans (plan -> cache_probe -> fetch -> aggregate -> render).
struct QueryTrace {
  uint64_t id = 0;          // assigned by TraceRecorder::Record
  /// Request trace id (obs/request_context.h), 0 when recorded outside a
  /// request scope. Joins this entry with the X-Rased-Trace-Id response
  /// header and the `trace=` field on the request's log lines.
  uint64_t trace_id = 0;
  std::string summary;      // human-readable query description
  int64_t wall_micros = 0;  // end-to-end wall time: executor cpu + render
  /// The executor's telemetry: cube sources, page I/O, the catalog epoch
  /// and the query's exact heap attribution (obs/heap_stats.h).
  QueryStats stats;
  std::vector<TraceSpan> spans;

  int64_t device_micros() const { return stats.io.simulated_device_micros; }
  /// wall + simulated device time: what an end user of the modeled
  /// hardware would experience; this is what the slow-query threshold
  /// compares against.
  int64_t total_micros() const { return wall_micros + device_micros(); }
};

/// The trace of one answered query: `result`'s stats and executor spans
/// plus a trailing "render" span of `render_micros`, stamped with the
/// current request's trace id. The spans are moved out of `result`.
QueryTrace MakeQueryTrace(const AnalysisQuery& query, QueryResult&& result,
                          int64_t render_micros);

struct TraceRecorderOptions {
  /// Ring-buffer capacity: how many recent traces /api/trace can return.
  size_t capacity = 64;
  /// Queries whose total_micros exceeds this log one WARN line with the
  /// full span breakdown. <= 0 disables slow-query logging.
  int64_t slow_query_micros = 250000;
  /// Token-bucket rate limit on that WARN line (a slow-query storm must
  /// not flood the log). At most this many lines per second, burst 1; the
  /// next emitted line carries a ` suppressed=N` suffix counting the slow
  /// queries whose lines were dropped since. <= 0 disables the limit.
  double slow_log_per_sec = 1.0;
};

/// Bounded ring buffer of recent query traces with slow-query logging.
/// Record/Snapshot are safe from any thread (one short mutex section; the
/// buffer is tiny and copies are cheap relative to query execution).
class TraceRecorder {
 public:
  explicit TraceRecorder(const TraceRecorderOptions& options = {},
                         MetricsRegistry* metrics = nullptr);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Assigns the trace a process-unique id, copies it over the oldest
  /// slot of the ring (reusing that slot's string and span storage, so a
  /// wrapped ring records without allocating), emits the slow-query log
  /// line when over threshold, and returns the assigned id.
  uint64_t Record(const QueryTrace& trace) RASED_EXCLUDES(mu_);

  /// The retained traces, oldest first.
  std::vector<QueryTrace> Snapshot() const RASED_EXCLUDES(mu_);

  /// Total traces ever recorded (not bounded by capacity).
  uint64_t total_recorded() const RASED_EXCLUDES(mu_);

  const TraceRecorderOptions& options() const { return options_; }

 private:
  const TraceRecorderOptions options_;
  // Registry handles, bound once in the constructor.
  Counter* recorded_counter_ RASED_CONST_AFTER_INIT =
      nullptr;  // rased_traces_recorded_total
  Counter* slow_counter_ RASED_CONST_AFTER_INIT =
      nullptr;  // rased_slow_queries_total
  Counter* suppressed_counter_ RASED_CONST_AFTER_INIT =
      nullptr;  // rased_slow_query_log_suppressed_total

  mutable Mutex mu_;
  uint64_t next_id_ RASED_GUARDED_BY(mu_) = 1;
  // capacity slots; trace `id` lives in slot (id - 1) % capacity.
  std::vector<QueryTrace> ring_ RASED_GUARDED_BY(mu_);
  // Slow-query log token bucket (capacity 1, slow_log_per_sec refill).
  double log_tokens_ RASED_GUARDED_BY(mu_) = 1.0;
  int64_t log_refill_micros_ RASED_GUARDED_BY(mu_) = 0;
  uint64_t log_suppressed_ RASED_GUARDED_BY(mu_) = 0;
};

}  // namespace rased

#endif  // RASED_QUERY_QUERY_TRACE_H_
