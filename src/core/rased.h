#ifndef RASED_CORE_RASED_H_
#define RASED_CORE_RASED_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/cube_cache.h"
#include "collect/changeset_store.h"
#include "collect/daily_crawler.h"
#include "collect/monthly_crawler.h"
#include "cube/data_cube.h"
#include "geo/world_map.h"
#include "index/cube_builder.h"
#include "index/temporal_index.h"
#include "obs/metrics_registry.h"
#include "osm/road_types.h"
#include "query/analysis_query.h"
#include "query/query_executor.h"
#include "query/query_trace.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "warehouse/warehouse.h"

namespace rased {

/// Top-level configuration for a RASED instance.
struct RasedOptions {
  /// Root directory; the index and warehouse live in subdirectories.
  std::string dir;

  /// Cube shape. The Country dimension also fixes the world-map zone
  /// count; RoadType fixes the road-type table capacity.
  CubeSchema schema = CubeSchema::PaperScale();

  /// Index hierarchy depth (1 = flat; 4 = full RASED).
  int num_levels = 4;

  /// Storage device cost model shared by index and warehouse.
  DeviceModel device;

  /// Cube cache configuration (Section VII-A defaults).
  CacheOptions cache;

  /// Query planning mode (flat vs. level-optimized).
  PlanMode plan_mode = PlanMode::kOptimized;

  /// Whether to maintain the sample-update warehouse (Section VI-B). Bulk
  /// cube loads at benchmark scale typically disable it.
  bool enable_warehouse = true;

  /// Registry every component (index pager, cache, executor, ingestion)
  /// publishes its metrics into. When null the instance creates and owns a
  /// private registry — the default, which keeps instances (and test
  /// suites sharing a process) isolated. A non-null registry must outlive
  /// the instance.
  MetricsRegistry* metrics = nullptr;

  /// Query-trace ring configuration (/api/trace capacity, slow-query
  /// threshold).
  TraceRecorderOptions trace;
};

/// The RASED system facade: owns the world map, road-type table, temporal
/// index, cube cache, query executor, and (optionally) the sample-update
/// warehouse, and exposes the two ingestion paths (daily crawl, monthly
/// rebuild) plus the two query families (analysis, sample).
///
/// Typical lifecycle:
///
///   RasedOptions options;
///   options.dir = "/data/rased";
///   auto rased = Rased::Create(options);
///   for (each day) rased->IngestDailyArtifacts(day, osc_xml, changesets_xml);
///   rased->WarmCache();
///   AnalysisQuery q = ...;
///   auto result = rased->Query(q);
///
/// After WarmCache, every publication refreshes the cache before the
/// ingest call returns: at every epoch it holds what WarmCache on a fresh
/// open would pick, so a new day is resident as soon as it is queryable.
///
/// Threading contract (MVCC): queries never block on ingest, and ingest
/// never waits for queries to drain. The const query family (Query,
/// SampleInBox, SampleByChangeset, Sample) takes no facade lock at all —
/// each analysis query pins one immutable catalog snapshot inside the
/// executor and runs plan → probe → fetch → aggregate entirely against
/// that version, accumulating its own QueryStats through the per-call I/O
/// context; sample queries go to the internally-synchronized warehouse.
/// Ingestion (IngestDailyArtifacts, IngestDayRecords, IngestDayCube,
/// ApplyMonthlyArtifacts), WarmCache, and Sync serialize against each
/// other on one writer mutex: a pipeline crawls and stages off to the
/// side, then the index publishes the new day and all of its rollups in a
/// single atomic version swap — queries started before the swap keep
/// reading the old version, queries started after see the new one, and no
/// query ever observes a half-appended day. Component accessors (index(),
/// cache(), ...) return internally-synchronized objects whose const reads
/// are likewise safe from any thread; mutating them directly (pager(),
/// mutable_world()) is setup/tooling territory and must not race serving.
class Rased {
 public:
  static Result<std::unique_ptr<Rased>> Create(const RasedOptions& options);
  static Result<std::unique_ptr<Rased>> Open(const RasedOptions& options);

  /// Reads the structural options (schema, levels, warehouse flag) a
  /// directory was created with, so tools can Open() a RASED instance
  /// without knowing its configuration out of band. Cache/device settings
  /// are runtime choices and come back defaulted.
  static Result<RasedOptions> LoadOptions(const std::string& dir);

  Rased(const Rased&) = delete;
  Rased& operator=(const Rased&) = delete;

  // ---- ingestion (Section V + VI) ----

  /// Daily pipeline: crawl the day's diff + changeset files, build the
  /// day's cube, append it to the index (with rollups), and stock the
  /// warehouse.
  Status IngestDailyArtifacts(Date day, std::string_view osc_xml,
                              std::string_view changesets_xml)
      RASED_EXCLUDES(ingest_mu_);

  /// Same pipeline when the UpdateList tuples are already in hand.
  Status IngestDayRecords(Date day, const std::vector<UpdateRecord>& records)
      RASED_EXCLUDES(ingest_mu_);

  /// Fast path: append a prebuilt day cube (no warehouse, no crawl). The
  /// dense cube is converted to the sparse write form once, here.
  Status IngestDayCube(Date day, const DataCube& cube)
      RASED_EXCLUDES(ingest_mu_);

  /// Monthly pipeline: crawl the month's full-history fragment (full
  /// four-way UpdateType classification) and rebuild the month's cubes.
  Status ApplyMonthlyArtifacts(Date month_start, std::string_view history_xml,
                               std::string_view changesets_xml)
      RASED_EXCLUDES(ingest_mu_);

  /// Warms the cube cache against the currently published catalog version
  /// (CubeCache::Warm), which every later publication then refreshes, and
  /// resets the index pager's stats. Serialized with ingest (so the
  /// warmed epoch is well defined) but never blocks queries.
  Status WarmCache() RASED_EXCLUDES(ingest_mu_);

  // ---- queries (Section IV) ----
  // Const and concurrency-safe without any facade lock: each call pins an
  // immutable catalog snapshot (MVCC) and charges its own per-query stats.

  Result<QueryResult> Query(const AnalysisQuery& query) const;

  /// Sample update queries (Section IV-B): the newest n matching updates,
  /// newest first (see Warehouse); n defaults to the paper's 100, 0 = all.
  Result<std::vector<UpdateRecord>> SampleInBox(const BoundingBox& box,
                                                size_t n = 100) const;
  Result<std::vector<UpdateRecord>> SampleByChangeset(
      uint64_t changeset_id) const;
  Result<std::vector<UpdateRecord>> Sample(const SampleFilter& filter,
                                           size_t n = 100) const;

  // ---- component access ----

  const WorldMap& world() const { return *world_; }
  WorldMap* mutable_world() { return world_.get(); }
  const RoadTypeTable* road_types() const { return road_types_.get(); }
  const TemporalIndex* index() const { return index_.get(); }
  TemporalIndex* index() { return index_.get(); }
  CubeCache* cache() const { return cache_.get(); }
  const QueryExecutor* executor() const { return executor_.get(); }
  Warehouse* warehouse() const { return warehouse_.get(); }
  const RasedOptions& options() const { return options_; }

  /// The registry all components report into (never null after
  /// Create/Open; instance-owned unless RasedOptions.metrics was set).
  /// Registered handles stay valid for the instance's lifetime.
  MetricsRegistry* metrics() const { return metrics_; }

  /// Ring buffer of recent query traces (never null after Create/Open).
  /// The serving layers (dashboard, CLI) record into it; /api/trace reads.
  TraceRecorder* traces() const { return traces_.get(); }

  /// Resolves a zone by name ("Germany", "North America", "Minnesota").
  Result<ZoneId> CountryId(std::string_view name) const {
    return world_->FindByName(name);
  }

  /// Resolves a road type by highway value ("residential"); a value the
  /// table does not hold is "other".
  RoadTypeId RoadTypeIdFor(std::string_view highway) const {
    return road_types_->Lookup(highway);
  }

  Status Sync() RASED_EXCLUDES(ingest_mu_);

 private:
  explicit Rased(const RasedOptions& options);

  Status InitComponents(bool create);

  /// Bodies shared by the public entry points (the public wrappers take
  /// the ingest mutex once; pipelines compose these without re-acquiring).
  /// `parts` are one crawl's tuples in parts (CrawlPool fragments), in
  /// order; they are consumed where they lie, never concatenated.
  Status IngestDayRecordsLocked(
      Date day, std::span<const std::vector<UpdateRecord>> parts)
      RASED_REQUIRES(ingest_mu_);
  /// CubeCache::Warm after a publication: once warmed, or always for kLru.
  Status RefreshCacheLocked() RASED_REQUIRES(ingest_mu_);

  /// rased.meta persistence: structural options, the road-type table's
  /// fingerprint (its ids are cube coordinates, so Open refuses a table
  /// that names them otherwise), and per-country road-network sizes
  /// (Percentage denominators). Saved on Create and Sync, loaded on Open.
  Status SaveMeta() const;
  Status LoadMeta();

  /// Serializes the write side only (ingestion pipelines, WarmCache,
  /// Sync): crawls stay ordered, the warehouse appends in day order, and
  /// the crawl pool has one caller. Queries never touch it — the read side
  /// is lock-free via catalog snapshots (MVCC), so this mutex is ordered
  /// before the component locks (index maintenance, cache, crawl pool) but
  /// never interacts with readers at all.
  mutable Mutex ingest_mu_;

  bool cache_warmed_ RASED_GUARDED_BY(ingest_mu_) = false;

  /// Everything below is assigned once in InitComponents — before any
  /// caller thread can reach the facade — and is immutable afterwards;
  /// the components themselves do their own locking.
  RasedOptions options_ RASED_CONST_AFTER_INIT;

  /// metrics_ points at options_.metrics when supplied, else at
  /// owned_metrics_. Declared before the components so it outlives their
  /// registered handles during destruction.
  std::unique_ptr<MetricsRegistry> owned_metrics_ RASED_CONST_AFTER_INIT;
  MetricsRegistry* metrics_ RASED_CONST_AFTER_INIT = nullptr;
  std::unique_ptr<TraceRecorder> traces_ RASED_CONST_AFTER_INIT;

  /// Ingestion counters (set in InitComponents; never null afterwards).
  struct IngestMetrics {
    Counter* records = nullptr;  // rased_ingest_records_total
    Counter* days = nullptr;     // rased_ingest_days_total
  };
  IngestMetrics ingest_metrics_ RASED_CONST_AFTER_INIT;

  std::unique_ptr<WorldMap> world_ RASED_CONST_AFTER_INIT;
  std::unique_ptr<RoadTypeTable> road_types_ RASED_CONST_AFTER_INIT;
  std::unique_ptr<TemporalIndex> index_ RASED_CONST_AFTER_INIT;
  std::unique_ptr<CubeBuilder> builder_ RASED_CONST_AFTER_INIT;
  std::unique_ptr<CubeCache> cache_ RASED_CONST_AFTER_INIT;
  std::unique_ptr<QueryExecutor> executor_ RASED_CONST_AFTER_INIT;
  std::unique_ptr<Warehouse> warehouse_ RASED_CONST_AFTER_INIT;
  /// Crawls each day's diff and changesets and each month's history in
  /// fragments (DESIGN.md §11.7); its helper threads start at the first
  /// chunked crawl. Used under ingest_mu_ only.
  std::unique_ptr<CrawlPool> crawl_pool_ RASED_CONST_AFTER_INIT;
};

}  // namespace rased

#endif  // RASED_CORE_RASED_H_
