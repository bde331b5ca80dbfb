#ifndef RASED_QUERY_QUERY_EXECUTOR_H_
#define RASED_QUERY_QUERY_EXECUTOR_H_

#include <memory>

#include "cache/cube_cache.h"
#include "geo/world_map.h"
#include "index/temporal_index.h"
#include "obs/metrics_registry.h"
#include "query/analysis_query.h"
#include "query/level_optimizer.h"
#include "util/result.h"

namespace rased {

/// Planning mode, matching the three system variants of Figure 9.
enum class PlanMode {
  kFlat = 0,       ///< RASED-F: daily cubes only, no optimizer
  kOptimized = 1,  ///< RASED-O / full RASED: level-optimized cover
};

/// The Query Execution module (Section VII). Phase 1 gathers the plan's
/// cubes: the cache is probed for every planned cube up front and all
/// misses are fetched in one batched index read, so physically adjacent
/// cube pages coalesce into single device operations. Phase 2 is pure
/// in-memory aggregation into a flat dense GROUP BY accumulator indexed
/// by packed group coordinates: every cube streams its encoded body
/// through AccumulateEncodedSlice — a cache hit its resident blob (sparse
/// COO or dense), a miss its slot in the batch arena — so sparse cubes
/// never materialize densely on the hot path.
///
/// Threading contract: the executor is stateless — Execute is const and
/// safe from any number of threads concurrently. Each execution pins one
/// CatalogSnapshot for its whole plan → probe → fetch → aggregate
/// pipeline, so a query started before a catalog publication runs
/// entirely against the pre-publication version (and records its epoch in
/// QueryStats) without ever blocking on — or observing a torn state from
/// — concurrent ingest. Each execution owns its QueryStats (page counts
/// and simulated device micros accumulate through a per-call IoStats
/// threaded into every index read), so concurrent queries produce
/// bit-identical accounting to a serial run. The cache's page-validated
/// probes guarantee a cube cached under a retired epoch never serves a
/// newer snapshot.
class QueryExecutor {
 public:
  /// `cache` may be null (uncached variants). `world` supplies zone names
  /// and road-network sizes for Percentage(*) queries. `metrics`, when
  /// non-null, receives live rased_query_* counters and latency histograms
  /// (registered eagerly here, so /metrics shows the families from boot);
  /// it must outlive the executor.
  QueryExecutor(const TemporalIndex* index, CubeCache* cache,
                const WorldMap* world, PlanMode mode = PlanMode::kOptimized,
                MetricsRegistry* metrics = nullptr);

  /// Runs one analysis query against `snapshot` (a pinned catalog
  /// version). The snapshot's epoch lands in QueryStats::epoch.
  Result<QueryResult> Execute(const AnalysisQuery& query,
                              const CatalogSnapshot& snapshot) const;

  /// Runs one analysis query, pinning the index's current version.
  Result<QueryResult> Execute(const AnalysisQuery& query) const;

  /// Plans without executing, against a pinned snapshot (exposed for
  /// tests and the plan-inspection dashboard endpoint).
  QueryPlan PlanFor(const AnalysisQuery& query,
                    const CatalogSnapshot& snapshot) const;
  QueryPlan PlanFor(const AnalysisQuery& query) const;

  PlanMode mode() const { return mode_; }

 private:
  const TemporalIndex* index_;
  CubeCache* cache_;
  const WorldMap* world_;
  PlanMode mode_;
  LevelOptimizer optimizer_;

  /// Registry handles (all set together in the constructor when `metrics`
  /// is non-null, else all null). Updated lock-free per execution, so the
  /// stateless-const threading contract above is unchanged.
  struct QueryMetrics {
    Counter* queries = nullptr;
    Counter* errors = nullptr;
    Counter* cubes_scanned = nullptr;
    Counter* alloc_ops = nullptr;        // rased_query_alloc_ops_total
    Histogram* cpu_micros = nullptr;     // wall time (fake-clock testable);
                                         // tracks per-bucket exemplars so
                                         // /api/trace?worst=1 can name the
                                         // worst trace id per latency bucket
    Histogram* device_micros = nullptr;  // deterministic device-model time
    Histogram* alloc_bytes = nullptr;      // rased_query_alloc_bytes
    Histogram* alloc_peak_bytes = nullptr; // rased_query_alloc_peak_bytes
  };
  QueryMetrics metrics_;
};

}  // namespace rased

#endif  // RASED_QUERY_QUERY_EXECUTOR_H_
