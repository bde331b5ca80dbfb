// The traced run: the workload's requests replayed serially on one thread
// with no server, calling each layer's public functions directly and
// timing each call from the benchmark's own files; an ingest replay
// through the collect, index and warehouse layers on a fixture copy; and
// the same days through the core ingest calls on another copy.
#ifndef DASHBENCH_TRACED_H_
#define DASHBENCH_TRACED_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/rased.h"
#include "dashboard/dashboard_service.h"
#include "fixture.h"
#include "workload.h"

namespace dashbench {

/// Span samples (microseconds) by span name, plus counts.
struct SpanLog {
  bool on = true;
  std::map<std::string, std::vector<double>> us;
  std::map<std::string, double> counts;

  /// Span start, in nanoseconds of the monotonic clock.
  int64_t Start() const;
  /// Records a span from `start` (no-op when tracing is off).
  void End(const char* name, int64_t start);
  void Count(const char* name, double n = 1) { counts[name] += n; }
};

/// Replays `requests` in order against `rased`, timing parse, plan, cache
/// probes, index reads, both aggregation kernels over the planned cubes,
/// the whole Rased::Query, rendering and sampling. With log->on false the
/// same calls run untimed (the baseline of the tracing overhead). Returns
/// false if any call fails.
bool ReplayReads(const rased::Rased& rased,
                 const rased::DashboardService& service,
                 const std::vector<Request>& requests, SpanLog* log);

/// Applies `days` days after the instance's coverage through the layers a
/// daily and monthly ingest touch (crawl, cube build, AppendDay, warehouse
/// append; at month ends the monthly crawl and RebuildMonth), timing the
/// crawl, AppendDay, Append and RebuildMonth calls. Returns false if any
/// call fails.
bool ReplayIngest(rased::Rased* rased, const FixtureSpec& spec, int days,
                  SpanLog* log);

/// Applies the same days through the core calls the end-to-end writer
/// makes: Rased::IngestDailyArtifacts per day and, at month ends,
/// Rased::ApplyMonthlyArtifacts then Rased::Sync. Times the first two as
/// "core.ingest_day" and "core.apply_month". Returns false if any call
/// fails.
bool IngestThroughCore(rased::Rased* rased, const FixtureSpec& spec, int days,
                       SpanLog* log);

}  // namespace dashbench

#endif  // DASHBENCH_TRACED_H_
