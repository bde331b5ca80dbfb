#ifndef RASED_QUERY_ANALYSIS_QUERY_H_
#define RASED_QUERY_ANALYSIS_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "collect/update_record.h"
#include "geo/world_map.h"
#include "io/pager.h"
#include "osm/element.h"
#include "osm/road_types.h"
#include "util/date.h"

namespace rased {

/// One RASED analysis query (Section IV-A). It mirrors the paper's SQL
/// signature: COUNT(*) over UpdateList, filtered by optional IN-lists on
/// the five dimensions plus a date BETWEEN window, grouped by any subset of
/// the dimensions. Empty filter lists mean "no constraint".
///
///   SELECT <grouped dims>, COUNT(*)            -- or Percentage(*)
///   FROM UpdateList U
///   WHERE U.Date BETWEEN range.first AND range.last
///     AND U.ElementType IN element_types ...   -- when non-empty
///   GROUP BY <grouped dims>
struct AnalysisQuery {
  DateRange range;

  // Filters (empty = all values).
  std::vector<ElementType> element_types;
  std::vector<ZoneId> countries;
  std::vector<RoadTypeId> road_types;
  std::vector<UpdateType> update_types;

  // Group-by flags. Grouping by Date forces a daily-granularity plan: the
  // per-day breakdown cannot be read out of coarser cubes.
  bool group_element_type = false;
  bool group_date = false;
  bool group_country = false;
  bool group_road_type = false;
  bool group_update_type = false;

  /// When true, results are reported as Percentage(*): the count divided
  /// by the road-network size of the row's country (Example 3 /
  /// Figure 5). Requires group_country.
  bool percentage = false;

  std::string ToString() const;
};

/// One output row. Group columns that were not requested hold the sentinel
/// kNoGroup.
struct ResultRow {
  static constexpr int32_t kNoGroup = -1;

  int32_t element_type = kNoGroup;  // ElementType when grouped
  Date date;                        // valid iff grouped by date
  bool has_date = false;
  int32_t country = kNoGroup;    // ZoneId when grouped
  int32_t road_type = kNoGroup;  // RoadTypeId when grouped
  int32_t update_type = kNoGroup;

  uint64_t count = 0;
  /// Filled when the query asked for Percentage(*).
  double percentage = 0.0;
};

/// Execution telemetry: the numbers behind every figure of Section VIII.
struct QueryStats {
  /// Total cubes the plan aggregates, by source.
  uint64_t cubes_total = 0;
  uint64_t cubes_from_cache = 0;
  uint64_t cubes_from_disk = 0;
  uint64_t cubes_per_level[4] = {0, 0, 0, 0};

  /// Epoch of the catalog version this query was pinned to for its whole
  /// plan → probe → fetch pipeline (0 if executed without a snapshot).
  uint64_t epoch = 0;

  /// Page I/O issued while executing (disk cube fetches).
  IoStats io;

  /// Pure CPU time of planning + in-memory aggregation.
  int64_t cpu_micros = 0;

  /// Exact heap attribution (obs/heap_stats.h ResourceScope): bytes and
  /// operations allocated on the executing thread while this query ran,
  /// and the high-water mark of net-live bytes above the scope baseline.
  /// Allocator usable sizes, so on/off profiling changes nothing here.
  uint64_t alloc_bytes = 0;
  uint64_t alloc_ops = 0;
  uint64_t peak_alloc_bytes = 0;

  /// End-to-end response time under the device model:
  /// cpu_micros + io.simulated_device_micros.
  int64_t total_micros() const {
    return cpu_micros + io.simulated_device_micros;
  }

  QueryStats& operator+=(const QueryStats& o);
};

/// One stage of a query's execution. Every span carries two clocks:
///  - wall_micros: real elapsed time (util/clock.h NowMicros, overridable
///    in tests), nondeterministic in production;
///  - device_micros: simulated device-model time charged by the pager
///    while this stage ran — a pure function of the workload, so
///    bit-identical between serial and concurrent runs.
struct TraceSpan {
  std::string name;
  int64_t wall_micros = 0;
  int64_t device_micros = 0;
};

/// A query answer: rows plus how it was computed.
struct QueryResult {
  std::vector<ResultRow> rows;
  QueryStats stats;
  /// Per-stage spans (plan, cache_probe, fetch, aggregate) recorded by the
  /// executor; the serving layer appends a render span and hands the whole
  /// trace to the TraceRecorder behind /api/trace (query/query_trace.h).
  std::vector<TraceSpan> spans;
};

}  // namespace rased

#endif  // RASED_QUERY_ANALYSIS_QUERY_H_
