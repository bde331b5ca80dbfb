#include "query/query_trace.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "obs/request_context.h"
#include "util/clock.h"
#include "util/logging.h"

namespace rased {

QueryTrace MakeQueryTrace(const AnalysisQuery& query, QueryResult&& result,
                          int64_t render_micros) {
  // The executor's spans partition its wall time; the render span goes on
  // top, so trace wall = executor cpu + render time.
  QueryTrace trace;
  trace.trace_id = CurrentTraceId();
  trace.summary = query.ToString();
  trace.wall_micros = result.stats.cpu_micros + render_micros;
  trace.stats = result.stats;
  trace.spans = std::move(result.spans);
  trace.spans.push_back({"render", render_micros, 0});
  return trace;
}

TraceRecorder::TraceRecorder(const TraceRecorderOptions& options,
                             MetricsRegistry* metrics)
    : options_(options), ring_(options.capacity) {
  RASED_CHECK(options_.capacity >= 1);
  if (metrics != nullptr) {
    recorded_counter_ = metrics->GetCounter(
        "rased_traces_recorded_total", "Query traces recorded (ring + slow)");
    slow_counter_ = metrics->GetCounter(
        "rased_slow_queries_total",
        "Queries whose wall+device time exceeded the slow-query threshold");
    suppressed_counter_ = metrics->GetCounter(
        "rased_slow_query_log_suppressed_total",
        "Slow-query WARN lines dropped by the log rate limiter");
  }
}

uint64_t TraceRecorder::Record(const QueryTrace& trace) {
  bool slow = options_.slow_query_micros > 0 &&
              trace.total_micros() > options_.slow_query_micros;
  bool log_suppressed = false;
  uint64_t id = 0;
  {
    MutexLock lock(&mu_);
    id = next_id_++;
    if (slow) {
      // Token bucket (capacity 1): a slow-query storm logs at most
      // slow_log_per_sec lines, and each emitted line carries how many
      // were dropped since the previous one.
      bool emit = true;
      if (options_.slow_log_per_sec > 0) {
        const int64_t now = NowMicros();
        if (log_refill_micros_ == 0) log_refill_micros_ = now;
        log_tokens_ =
            std::min(1.0, log_tokens_ + static_cast<double>(
                                            now - log_refill_micros_) *
                                            options_.slow_log_per_sec / 1e6);
        log_refill_micros_ = now;
        if (log_tokens_ >= 1.0) {
          log_tokens_ -= 1.0;
        } else {
          emit = false;
        }
      }
      if (emit) {
        std::ostringstream line;
        line << "slow query #" << id << ": total=" << trace.total_micros()
             << "us (wall=" << trace.wall_micros
             << "us device=" << trace.device_micros()
             << "us) cubes=" << trace.stats.cubes_total << " ("
             << trace.stats.cubes_from_cache << " cached, "
             << trace.stats.cubes_from_disk
             << " disk) read_ops=" << trace.stats.io.read_ops
             << " bytes_read=" << trace.stats.io.bytes_read
             << " alloc_bytes=" << trace.stats.alloc_bytes
             << " peak_alloc=" << trace.stats.peak_alloc_bytes;
        for (const TraceSpan& span : trace.spans) {
          line << " " << span.name << "=" << span.wall_micros << "+"
               << span.device_micros << "us";
        }
        line << " query={" << trace.summary << "}";
        if (log_suppressed_ > 0) {
          line << " suppressed=" << log_suppressed_;
          log_suppressed_ = 0;
        }
        RASED_LOG(Warning) << line.str();
      } else {
        ++log_suppressed_;
        log_suppressed = true;
      }
    }
    // Copy-assignment keeps the slot's string and span buffers when they
    // are large enough, and the caller frees the request's own.
    QueryTrace& slot = ring_[(id - 1) % ring_.size()];
    slot = trace;
    slot.id = id;
  }
  if (recorded_counter_ != nullptr) recorded_counter_->Increment();
  if (slow && slow_counter_ != nullptr) slow_counter_->Increment();
  if (log_suppressed && suppressed_counter_ != nullptr) {
    suppressed_counter_->Increment();
  }
  return id;
}

std::vector<QueryTrace> TraceRecorder::Snapshot() const {
  MutexLock lock(&mu_);
  const uint64_t retained = std::min<uint64_t>(next_id_ - 1, ring_.size());
  std::vector<QueryTrace> traces;
  traces.reserve(retained);
  for (uint64_t id = next_id_ - retained; id < next_id_; ++id) {
    traces.push_back(ring_[(id - 1) % ring_.size()]);
  }
  return traces;
}

uint64_t TraceRecorder::total_recorded() const {
  MutexLock lock(&mu_);
  return next_id_ - 1;
}

}  // namespace rased
