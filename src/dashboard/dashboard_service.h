#ifndef RASED_DASHBOARD_DASHBOARD_SERVICE_H_
#define RASED_DASHBOARD_DASHBOARD_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/rased.h"
#include "dashboard/http_server.h"
#include "dashboard/render.h"
#include "obs/profiler.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "util/thread_annotations.h"

namespace rased {

/// Self-monitoring knobs (DESIGN.md §12). Defaults suit a serving
/// instance; tests disable the background sampler and drive
/// history()->SampleOnce() under a FakeClock for determinism.
struct DashboardOptions {
  MetricsHistoryOptions selfstats;
  SloOptions slo;
  /// Readiness: ingest counts as wedged when rased_ingest_lag_sequences
  /// is nonzero and the last CatchUp progress stamp
  /// (rased_ingest_last_progress_micros) is older than this.
  int64_t max_ingest_idle_micros = 15 * 60 * 1000000LL;
  /// Start() launches the background selfstats sampler.
  bool start_sampler = true;
  /// Always-on CPU profiler (obs/profiler.h): Start() joins the
  /// process-wide profiler with these options (refcounted, so several
  /// services share one profiler) and registers its rased_profiler_*
  /// series plus a sample drop-rate SLO objective. Tests that want a
  /// signal-free process set start_profiler = false.
  ProfilerOptions profiler;
  bool start_profiler = true;
};

/// The RASED web dashboard: a REST API plus a self-contained HTML page,
/// backed by one Rased instance. Endpoints:
///
///   GET /                  interactive HTML dashboard
///   GET /api/query         analysis query
///       ?from=2021-01-01&to=2021-12-31
///       &countries=Germany,Qatar          (names; empty = all)
///       &element_types=node,way,relation
///       &road_types=residential,service
///       &update_types=new,delete,geometry,metadata
///       &group=country,element_type,date,road_type,update_type
///       &percentage=1
///       &format=json|table|bar|timeseries|choropleth|pivot
///   GET /api/sql           the same analysis queries in the paper's SQL
///       ?q=SELECT Country, COUNT(*) FROM UpdateList ... GROUP BY Country
///       &format=...        (same formats as /api/query)
///   GET /api/sample        sample update queries (Section IV-B)
///       ?changeset=<id>  |  ?min_lat=..&min_lon=..&max_lat=..&max_lon=..&n=100
///       (the newest n updates in the box; n=0 or n > kMaxSampleRecords
///       returns kMaxSampleRecords, a non-numeric n is 400)
///   GET /api/zones         the Country dimension (id, name, kind, size)
///   GET /api/stats         index/cache/storage statistics
///   GET /api/trace         recent query traces (per-span wall + device time,
///                          exact per-query heap attribution)
///       ?worst=1           instead: worst trace id per latency bucket since
///                          the last drain (histogram exemplars)
///   GET /api/profile       CPU profile, folded stacks or JSON
///       ?seconds=5         on-demand capture of the next N seconds (<=30)
///       ?window=60         instead: merge retained always-on windows
///                          covering the trailing N seconds
///       &format=folded|json
///   GET /api/selfstats     retained metric history (obs/timeseries.h)
///       ?family=rased_queries_total      (empty = all series)
///       &window=3600                     (seconds back from now; 0 = all)
///       &format=json|tsv                 (tsv feeds `rased top`)
///   GET /healthz           liveness: 200 "ok" whenever the server runs
///   GET /readyz            readiness: 200/503 + per-check JSON (catalog
///                          published, ingest not wedged, SLO not burning)
///   GET /metrics           Prometheus text exposition of every registered
///                          metric (content type text/plain; version=0.0.4)
///
/// All endpoints are GET-only; a known path with another method is 405.
/// Every response carries X-Rased-Trace-Id (obs/request_context.h).
class DashboardService {
 public:
  /// Most records one /api/sample box request returns.
  static constexpr uint64_t kMaxSampleRecords = 1000;

  /// `rased` must outlive the service.
  explicit DashboardService(Rased* rased,
                            const DashboardOptions& options = {});

  /// Starts serving on 127.0.0.1:`port` (0 = ephemeral) with a pool of
  /// `num_workers` HTTP threads handling requests concurrently, and (per
  /// options) the background selfstats sampler.
  Status Start(int port, int num_workers = 8);
  void Stop();
  int port() const { return server_.port(); }

  /// Self-monitoring internals (exposed for tests and `rased top`).
  MetricsHistory* history() { return &history_; }
  SloTracker* slo() { return &slo_; }

  /// Parses /api/query parameters into an AnalysisQuery (exposed for
  /// tests). Unknown names return InvalidArgument. Reads index coverage
  /// and resolves names through the Rased instance's const read path.
  Result<AnalysisQuery> ParseQueryParams(const HttpRequest& request) const;

 private:
  void HandleIndex(const HttpRequest& request, HttpResponse* response);
  void HandleQuery(const HttpRequest& request, HttpResponse* response);
  void HandleSql(const HttpRequest& request, HttpResponse* response);
  /// Executes a parsed query and renders it per the `format` param.
  void ExecuteAndRender(const AnalysisQuery& query,
                        const HttpRequest& request, HttpResponse* response);
  void HandleSample(const HttpRequest& request, HttpResponse* response);
  void HandleZones(const HttpRequest& request, HttpResponse* response);
  void HandleStats(const HttpRequest& request, HttpResponse* response);
  void HandleTrace(const HttpRequest& request, HttpResponse* response);
  void HandleWorstTraces(HttpResponse* response);
  void HandleProfile(const HttpRequest& request, HttpResponse* response);
  void HandleMetrics(const HttpRequest& request, HttpResponse* response);
  void HandleSelfstats(const HttpRequest& request, HttpResponse* response);
  void HandleHealthz(const HttpRequest& request, HttpResponse* response);
  void HandleReadyz(const HttpRequest& request, HttpResponse* response);

  /// The HTTP workers run handlers concurrently against the Rased
  /// instance directly: its query family is const and internally guarded
  /// by a reader-writer lock, the index catalog and cube cache are
  /// internally synchronized, and every query accumulates I/O into its
  /// own QueryStats. The service itself holds no lock — the days of the
  /// big rased_mu_ serializing every endpoint are over.
  Rased* const rased_;
  const DashboardOptions options_;
  RenderContext ctx_;
  HttpServer server_;

  /// Self-monitoring: the history samples the instance registry; the SLO
  /// tracker re-evaluates after every sample (post-sample hook) and on
  /// every /readyz probe.
  MetricsHistory history_;
  SloTracker slo_;
  /// Whether Start() joined the process profiler (so Stop() leaves it).
  bool profiler_started_ = false;

  /// Readiness handles (registered here if the ingestor has not yet):
  /// lag in sequences and the NowMicros stamp of the last CatchUp.
  Gauge* ingest_lag_sequences_;
  Gauge* ingest_last_progress_;

  /// /api/stats is served off the instance registry (the same numbers
  /// /metrics exports) — handles resolved once in the ctor. Counters are
  /// cumulative since boot; gauges track the live component state.
  struct StatsHandles {
    Gauge* cubes_per_level[kNumLevels] = {nullptr, nullptr, nullptr, nullptr};
    Gauge* file_bytes = nullptr;
    Gauge* cache_budget_bytes = nullptr;
    Gauge* cache_resident = nullptr;
    Gauge* cache_resident_bytes = nullptr;
    Counter* cache_hits = nullptr;
    Counter* cache_misses = nullptr;
  };
  StatsHandles stats_;
};

}  // namespace rased

#endif  // RASED_DASHBOARD_DASHBOARD_SERVICE_H_
