#include "dashboard/dashboard_service.h"

#include <algorithm>

#include "cube/agg_kernels.h"
#include "dashboard/json_writer.h"
#include "obs/build_info.h"
#include "obs/request_context.h"
#include "query/sql_parser.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/str_util.h"

namespace rased {

namespace {

const char kIndexHtml[] = R"html(<!doctype html>
<html><head><meta charset="utf-8"><title>RASED</title>
<style>
 body{font-family:system-ui,sans-serif;margin:2rem;max-width:70rem}
 h1{font-size:1.4rem} label{margin-right:.75rem}
 input,select{margin:.15rem .5rem .15rem 0}
 pre{background:#f4f4f4;padding:1rem;overflow:auto}
 table{border-collapse:collapse} td,th{border:1px solid #999;padding:.2rem .6rem;text-align:right}
 th:first-child,td:first-child{text-align:left}
</style></head>
<body>
<h1>RASED &mdash; Road network updates in OSM</h1>
<p>Aggregate analysis over the hierarchical temporal cube index.</p>
<form id="f">
 <label>from <input name="from" value="2021-01-01"></label>
 <label>to <input name="to" value="2021-12-31"></label>
 <label>countries <input name="countries" placeholder="Germany,Qatar"></label>
 <label>group <input name="group" value="country"></label>
 <label>update types <input name="update_types" placeholder="new,geometry"></label>
 <label><input type="checkbox" name="percentage">percentage</label>
 <button>Run</button>
</form>
<h2>Rows</h2><div id="rows"></div>
<h2>Stats</h2><pre id="stats"></pre>
<script>
const f=document.getElementById('f');
f.addEventListener('submit',async e=>{
  e.preventDefault();
  const p=new URLSearchParams();
  for(const el of f.elements){
    if(!el.name)continue;
    if(el.type==='checkbox'){if(el.checked)p.set(el.name,'1');}
    else if(el.value)p.set(el.name,el.value);
  }
  const r=await fetch('/api/query?'+p.toString());
  const j=await r.json();
  const rows=j.rows||[];
  let html='<table><tr>';
  const cols=rows.length?Object.keys(rows[0]):[];
  for(const c of cols)html+='<th>'+c+'</th>';
  html+='</tr>';
  for(const row of rows.slice(0,200)){
    html+='<tr>';
    for(const c of cols)html+='<td>'+row[c]+'</td>';
    html+='</tr>';
  }
  html+='</table>';
  document.getElementById('rows').innerHTML=html;
  document.getElementById('stats').textContent=JSON.stringify(j.stats,null,2);
});
</script>
</body></html>
)html";

std::vector<std::string> SplitParam(const std::string& value) {
  std::vector<std::string> out;
  if (value.empty()) return out;
  for (const std::string& part : Split(value, ',')) {
    std::string_view trimmed = Trim(part);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

void WriteError(const Status& status, HttpResponse* response) {
  // Client mistakes (bad parameter values, unknown names) are 400s.
  response->status =
      status.IsInvalidArgument() || status.IsNotFound() ? 400 : 500;
  JsonWriter w;
  w.BeginObject();
  w.KV("error", std::string_view(status.ToString()));
  w.EndObject();
  response->body = std::move(w).Finish();
}

/// The SLO set actually tracked: the configured objectives (or the
/// defaults) plus, when the profiler runs, a sample drop-rate objective —
/// the profiler is SLO-gated like any serving path: if it drops more than
/// 1% of its samples it shows up in /readyz before anyone trusts a
/// profile from it.
SloOptions SloWithProfilerObjective(const DashboardOptions& options) {
  SloOptions slo = options.slo;
  if (!options.start_profiler) return slo;
  if (slo.objectives.empty()) {
    slo.objectives = SloTracker::DefaultObjectives();
  }
  SloObjective drops;
  drops.name = "profiler_drops";
  drops.kind = SloObjective::Kind::kRatio;
  drops.family = "rased_profiler_samples_total";
  drops.bad_family = "rased_profiler_samples_dropped_total";
  drops.target = 0.99;
  slo.objectives.push_back(drops);
  return slo;
}

}  // namespace

DashboardService::DashboardService(Rased* rased,
                                   const DashboardOptions& options)
    : rased_(rased),
      options_(options),
      history_(rased->metrics(), options.selfstats),
      slo_(&history_, rased->metrics(), SloWithProfilerObjective(options)) {
  // Keep the SLO gauges fresh without a dedicated thread: re-evaluate
  // right after every selfstats sample, so the next sample (and any
  // /metrics scrape) sees current burn rates.
  history_.SetPostSampleHook(
      [this](int64_t now_micros) { slo_.Evaluate(now_micros); });
  ctx_.world = &rased_->world();
  ctx_.road_types = rased_->road_types();
  server_.Route("/", [this](const HttpRequest& q, HttpResponse* r) {
    HandleIndex(q, r);
  });
  server_.Route("/api/query", [this](const HttpRequest& q, HttpResponse* r) {
    HandleQuery(q, r);
  });
  server_.Route("/api/sql", [this](const HttpRequest& q, HttpResponse* r) {
    HandleSql(q, r);
  });
  server_.Route("/api/sample", [this](const HttpRequest& q, HttpResponse* r) {
    HandleSample(q, r);
  });
  server_.Route("/api/zones", [this](const HttpRequest& q, HttpResponse* r) {
    HandleZones(q, r);
  });
  server_.Route("/api/stats", [this](const HttpRequest& q, HttpResponse* r) {
    HandleStats(q, r);
  });
  server_.Route("/api/trace", [this](const HttpRequest& q, HttpResponse* r) {
    HandleTrace(q, r);
  });
  server_.Route("/api/profile", [this](const HttpRequest& q, HttpResponse* r) {
    HandleProfile(q, r);
  });
  server_.Route("/metrics", [this](const HttpRequest& q, HttpResponse* r) {
    HandleMetrics(q, r);
  });
  server_.Route("/api/selfstats",
                [this](const HttpRequest& q, HttpResponse* r) {
                  HandleSelfstats(q, r);
                });
  server_.Route("/healthz", [this](const HttpRequest& q, HttpResponse* r) {
    HandleHealthz(q, r);
  });
  server_.Route("/readyz", [this](const HttpRequest& q, HttpResponse* r) {
    HandleReadyz(q, r);
  });
  server_.set_metrics(rased_->metrics());

  // /api/stats handles: the same series the components registered (handle
  // lookups are idempotent, so registration order does not matter).
  MetricsRegistry* metrics = rased_->metrics();
  static constexpr const char* kLevels[kNumLevels] = {"daily", "weekly",
                                                      "monthly", "yearly"};
  for (int level = 0; level < kNumLevels; ++level) {
    // NOLINT-RASED(metric-in-loop): one-time registration over kNumLevels
    stats_.cubes_per_level[level] = metrics->GetGauge(
        "rased_index_cubes", "Cubes stored, by level",
        MetricLabels{{"level", kLevels[level]}});
  }
  stats_.file_bytes =
      metrics->GetGauge("rased_index_file_bytes", "Index file size in bytes");
  stats_.cache_budget_bytes =
      metrics->GetGauge("rased_cache_budget_bytes", "Cache byte budget");
  stats_.cache_resident =
      metrics->GetGauge("rased_cache_resident_cubes", "Cubes resident");
  stats_.cache_resident_bytes = metrics->GetGauge(
      "rased_cache_resident_bytes", "Encoded bytes resident");
  stats_.cache_hits =
      metrics->GetCounter("rased_cache_hits_total", "Cube cache hits");
  stats_.cache_misses =
      metrics->GetCounter("rased_cache_misses_total", "Cube cache misses");

  // Readiness handles. The ingestor registers the same series when it
  // exists; on a serve-only instance they stay 0 (= not wedged).
  ingest_lag_sequences_ = metrics->GetGauge(
      "rased_ingest_lag_sequences",
      "Replication sequences in the feed not yet applied (ingest lag)");
  ingest_last_progress_ = metrics->GetGauge(
      "rased_ingest_last_progress_micros",
      "util/clock.h NowMicros stamp of the last replication CatchUp");
}

Status DashboardService::Start(int port, int num_workers) {
  RASED_RETURN_IF_ERROR(server_.Start(port, num_workers));
  if (options_.start_sampler) history_.StartSampler();
  if (options_.start_profiler) {
    ProfilerOptions popts = options_.profiler;
    if (popts.metrics == nullptr) popts.metrics = rased_->metrics();
    Status status = Profiler::Global()->Start(popts);
    if (status.ok()) {
      profiler_started_ = true;
    } else {
      // Profiling is observability, not serving: degrade, don't fail.
      RASED_LOG(Warning) << "continuous profiler unavailable: "
                         << status.ToString();
    }
  }
  return Status::OK();
}

void DashboardService::Stop() {
  history_.StopSampler();
  server_.Stop();
  if (profiler_started_) {
    Profiler::Global()->Stop();
    profiler_started_ = false;
  }
}

Result<AnalysisQuery> DashboardService::ParseQueryParams(
    const HttpRequest& request) const {
  AnalysisQuery query;

  // Dates; default to the whole index coverage.
  DateRange coverage = rased_->index()->coverage();
  query.range = coverage;
  if (request.HasParam("from")) {
    RASED_ASSIGN_OR_RETURN(query.range.first,
                           Date::Parse(request.Param("from")));
  }
  if (request.HasParam("to")) {
    RASED_ASSIGN_OR_RETURN(query.range.last, Date::Parse(request.Param("to")));
  }

  for (const std::string& name : SplitParam(request.Param("countries"))) {
    RASED_ASSIGN_OR_RETURN(ZoneId id, rased_->CountryId(name));
    query.countries.push_back(id);
  }
  for (const std::string& name : SplitParam(request.Param("element_types"))) {
    RASED_ASSIGN_OR_RETURN(ElementType t, ParseElementType(name));
    query.element_types.push_back(t);
  }
  for (const std::string& name : SplitParam(request.Param("road_types"))) {
    query.road_types.push_back(rased_->road_types()->Lookup(name));
  }
  for (const std::string& name : SplitParam(request.Param("update_types"))) {
    if (name == "new") {
      query.update_types.push_back(UpdateType::kNew);
    } else if (name == "delete") {
      query.update_types.push_back(UpdateType::kDelete);
    } else if (name == "geometry") {
      query.update_types.push_back(UpdateType::kGeometry);
    } else if (name == "metadata") {
      query.update_types.push_back(UpdateType::kMetadata);
    } else {
      return Status::InvalidArgument("unknown update type '" + name + "'");
    }
  }
  for (const std::string& name : SplitParam(request.Param("group"))) {
    if (name == "country") {
      query.group_country = true;
    } else if (name == "date") {
      query.group_date = true;
    } else if (name == "element_type") {
      query.group_element_type = true;
    } else if (name == "road_type") {
      query.group_road_type = true;
    } else if (name == "update_type") {
      query.group_update_type = true;
    } else {
      return Status::InvalidArgument("unknown group dimension '" + name + "'");
    }
  }
  query.percentage = request.Param("percentage") == "1";
  if (query.percentage) query.group_country = true;
  return query;
}

void DashboardService::HandleIndex(const HttpRequest&,
                                   HttpResponse* response) {
  response->content_type = "text/html; charset=utf-8";
  response->body = kIndexHtml;
}

void DashboardService::HandleQuery(const HttpRequest& request,
                                   HttpResponse* response) {
  auto query = ParseQueryParams(request);
  if (!query.ok()) {
    WriteError(query.status(), response);
    return;
  }
  ExecuteAndRender(query.value(), request, response);
}

void DashboardService::HandleSql(const HttpRequest& request,
                                 HttpResponse* response) {
  std::string sql = request.Param("q");
  if (sql.empty()) {
    WriteError(Status::InvalidArgument("missing ?q=<SQL>"), response);
    return;
  }
  SqlParser parser(&rased_->world(), rased_->road_types());
  auto query = parser.Parse(sql);
  if (!query.ok()) {
    WriteError(query.status(), response);
    return;
  }
  ExecuteAndRender(query.value(), request, response);
}

void DashboardService::ExecuteAndRender(const AnalysisQuery& query,
                                        const HttpRequest& request,
                                        HttpResponse* response) {
  auto result = rased_->Query(query);
  if (!result.ok()) {
    WriteError(result.status(), response);
    return;
  }
  const int64_t t_render = NowMicros();
  auto rendered = RenderFormat(request.Param("format"), "json",
                               result.value(), query, ctx_);
  if (rendered.ok()) {
    response->content_type = std::move(rendered.value().content_type);
    response->body = std::move(rendered.value().body);
  } else {
    WriteError(rendered.status(), response);
  }
  // Record the trace even on a bad-format response — the query itself ran.
  rased_->traces()->Record(MakeQueryTrace(
      query, std::move(result).value(), NowMicros() - t_render));
}

void DashboardService::HandleSample(const HttpRequest& request,
                                    HttpResponse* response) {
  Result<std::vector<UpdateRecord>> samples =
      std::vector<UpdateRecord>{};
  if (request.HasParam("changeset")) {
    auto id = ParseUint(request.Param("changeset"));
    if (!id.ok()) {
      WriteError(id.status(), response);
      return;
    }
    samples = rased_->SampleByChangeset(id.value());
  } else if (request.HasParam("min_lat")) {
    BoundingBox box;
    auto parse = [&request](const char* key) {
      return ParseDouble(request.Param(key));
    };
    auto min_lat = parse("min_lat"), min_lon = parse("min_lon"),
         max_lat = parse("max_lat"), max_lon = parse("max_lon");
    if (!min_lat.ok() || !min_lon.ok() || !max_lat.ok() || !max_lon.ok()) {
      WriteError(Status::InvalidArgument("bad bounding box"), response);
      return;
    }
    box = BoundingBox{min_lat.value(), min_lon.value(), max_lat.value(),
                      max_lon.value()};
    // The paper's default sample size; n=0 ("all") and anything larger
    // are clamped to kMaxSampleRecords.
    uint64_t n = 100;
    if (request.HasParam("n")) {
      auto parsed = ParseUint(request.Param("n"));
      if (!parsed.ok()) {
        WriteError(Status::InvalidArgument(
                       "bad sample size n: expected a non-negative integer"),
                   response);
        return;
      }
      n = parsed.value();
    }
    if (n == 0 || n > kMaxSampleRecords) n = kMaxSampleRecords;
    samples = rased_->SampleInBox(box, static_cast<size_t>(n));
  } else {
    WriteError(Status::InvalidArgument(
                   "expected ?changeset=<id> or a bounding box"),
               response);
    return;
  }
  if (!samples.ok()) {
    WriteError(samples.status(), response);
    return;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("samples");
  w.BeginArray();
  for (const UpdateRecord& r : samples.value()) {
    w.BeginObject();
    w.KV("element_type", ElementTypeName(r.element_type));
    w.KV("date", std::string_view(r.date.ToString()));
    w.KV("country", std::string_view(ctx_.CountryName(r.country)));
    w.KV("lat", r.lat);
    w.KV("lon", r.lon);
    w.KV("road_type", std::string_view(ctx_.RoadTypeName(r.road_type)));
    w.KV("update_type", UpdateTypeName(r.update_type));
    w.KV("changeset", r.changeset_id);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  response->body = std::move(w).Finish();
}

void DashboardService::HandleZones(const HttpRequest&,
                                   HttpResponse* response) {
  JsonWriter w;
  w.BeginObject();
  w.Key("zones");
  w.BeginArray();
  for (const Zone& z : rased_->world().zones()) {
    w.BeginObject();
    w.KV("id", static_cast<uint64_t>(z.id));
    w.KV("name", std::string_view(z.name));
    const char* kind = z.kind == ZoneKind::kCountry     ? "country"
                       : z.kind == ZoneKind::kContinent ? "continent"
                       : z.kind == ZoneKind::kState     ? "state"
                                                        : "unknown";
    w.KV("kind", kind);
    w.KV("road_network_size", z.road_network_size);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  response->body = std::move(w).Finish();
}

void DashboardService::HandleStats(const HttpRequest&,
                                   HttpResponse* response) {
  // Served off the registry handles resolved in the ctor: the numbers here
  // are by construction the same series /metrics exports.
  auto gauge = [](const Gauge* g) { return static_cast<uint64_t>(g->value()); };
  uint64_t total_cubes = 0;
  for (const Gauge* g : stats_.cubes_per_level) total_cubes += gauge(g);
  JsonWriter w;
  w.BeginObject();
  w.Key("index");
  w.BeginObject();
  w.KV("coverage", std::string_view(rased_->index()->coverage().ToString()));
  w.KV("daily_cubes", gauge(stats_.cubes_per_level[0]));
  w.KV("weekly_cubes", gauge(stats_.cubes_per_level[1]));
  w.KV("monthly_cubes", gauge(stats_.cubes_per_level[2]));
  w.KV("yearly_cubes", gauge(stats_.cubes_per_level[3]));
  w.KV("total_cubes", total_cubes);
  w.KV("file_bytes", gauge(stats_.file_bytes));
  w.EndObject();
  w.Key("cache");
  w.BeginObject();
  w.KV("budget_bytes", gauge(stats_.cache_budget_bytes));
  w.KV("resident", gauge(stats_.cache_resident));
  w.KV("resident_bytes", gauge(stats_.cache_resident_bytes));
  w.KV("hits", stats_.cache_hits->value());
  w.KV("misses", stats_.cache_misses->value());
  w.EndObject();
  w.Key("http");
  w.BeginObject();
  w.KV("requests_served", server_.requests_served());
  w.EndObject();
  w.KV("metric_series", static_cast<uint64_t>(rased_->metrics()->num_series()));
  w.EndObject();
  response->body = std::move(w).Finish();
}

void DashboardService::HandleTrace(const HttpRequest& request,
                                   HttpResponse* response) {
  if (request.Param("worst") == "1") {
    HandleWorstTraces(response);
    return;
  }
  TraceRecorder* recorder = rased_->traces();
  std::vector<QueryTrace> traces = recorder->Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.KV("total_recorded", recorder->total_recorded());
  w.KV("capacity", static_cast<uint64_t>(recorder->options().capacity));
  w.Key("traces");
  w.BeginArray();
  for (const QueryTrace& t : traces) {
    w.BeginObject();
    w.KV("id", t.id);
    const std::string trace_hex =
        t.trace_id == 0 ? std::string() : FormatTraceId(t.trace_id);
    w.KV("trace_id", std::string_view(trace_hex));
    w.KV("query", std::string_view(t.summary));
    w.KV("wall_micros", t.wall_micros);
    w.KV("device_micros", t.device_micros());
    w.KV("total_micros", t.total_micros());
    w.KV("cubes_total", t.stats.cubes_total);
    w.KV("cubes_from_cache", t.stats.cubes_from_cache);
    w.KV("cubes_from_disk", t.stats.cubes_from_disk);
    w.KV("page_reads", t.stats.io.page_reads);
    w.KV("read_ops", t.stats.io.read_ops);
    w.KV("bytes_read", t.stats.io.bytes_read);
    w.KV("epoch", t.stats.epoch);
    w.KV("alloc_bytes", t.stats.alloc_bytes);
    w.KV("alloc_ops", t.stats.alloc_ops);
    w.KV("peak_alloc_bytes", t.stats.peak_alloc_bytes);
    w.Key("spans");
    w.BeginArray();
    for (const TraceSpan& span : t.spans) {
      w.BeginObject();
      w.KV("name", std::string_view(span.name));
      w.KV("wall_micros", span.wall_micros);
      w.KV("device_micros", span.device_micros);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  response->body = std::move(w).Finish();
}

void DashboardService::HandleWorstTraces(HttpResponse* response) {
  // The executor's latency histogram remembers the worst observation (and
  // its trace id) per bucket; draining resets the slots, so each response
  // covers "since the last ?worst=1 drain".
  Histogram* latency = rased_->metrics()->GetHistogram(
      "rased_query_cpu_micros",
      "Per-query wall time of planning + aggregation (microseconds)");
  std::vector<HistogramExemplar> exemplars = latency->DrainExemplars();
  JsonWriter w;
  w.BeginObject();
  w.KV("histogram", "rased_query_cpu_micros");
  w.KV("tracks_exemplars", latency->tracks_exemplars());
  w.Key("worst");
  w.BeginArray();
  for (const HistogramExemplar& e : exemplars) {
    w.BeginObject();
    w.KV("bucket", static_cast<int64_t>(e.bucket));
    const std::string le = e.bound < 0 ? "+Inf" : std::to_string(e.bound);
    w.KV("le", std::string_view(le));
    w.KV("worst_micros", e.value);
    const std::string trace_hex =
        e.trace_id == 0 ? std::string() : FormatTraceId(e.trace_id);
    w.KV("trace_id", std::string_view(trace_hex));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  response->body = std::move(w).Finish();
}

void DashboardService::HandleProfile(const HttpRequest& request,
                                     HttpResponse* response) {
  Profiler* profiler = Profiler::Global();
  if (!profiler->running()) {
    WriteError(Status::FailedPrecondition(
                   "profiler is not running on this instance"),
               response);
    return;
  }
  const std::string format = request.Param("format");
  if (!format.empty() && format != "folded" && format != "json") {
    WriteError(Status::InvalidArgument("unknown format '" + format + "'"),
               response);
    return;
  }

  Result<ProfileReport> report = Status::Internal("unreachable");
  if (request.HasParam("window")) {
    auto seconds = ParseUint(request.Param("window"));
    if (!seconds.ok()) {
      WriteError(Status::InvalidArgument("bad window= (want seconds)"),
                 response);
      return;
    }
    report = profiler->RetainedReport(static_cast<int64_t>(seconds.value()) *
                                      1000000);
  } else {
    // On-demand capture of the next N seconds (default 5, capped at 30 so
    // a typo cannot pin an HTTP worker for minutes).
    int64_t seconds = 5;
    if (request.HasParam("seconds")) {
      auto parsed = ParseUint(request.Param("seconds"));
      if (!parsed.ok() || parsed.value() == 0) {
        WriteError(Status::InvalidArgument("bad seconds= (want 1..30)"),
                   response);
        return;
      }
      seconds = std::min<int64_t>(static_cast<int64_t>(parsed.value()), 30);
    }
    report = profiler->CollectFor(seconds * 1000000);
  }
  if (!report.ok()) {
    WriteError(report.status(), response);
    return;
  }
  const ProfileReport& value = report.value();

  if (format == "json") {
    JsonWriter w;
    w.BeginObject();
    w.KV("duration_micros", value.duration_micros);
    w.KV("samples", value.samples);
    w.KV("dropped", value.dropped);
    w.Key("stacks");
    w.BeginArray();
    for (const auto& [stack, count] : value.folded) {
      w.BeginObject();
      w.KV("stack", std::string_view(stack));
      w.KV("count", count);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    response->body = std::move(w).Finish();
    return;
  }
  // Default: folded stacks, ready for flamegraph.pl / speedscope.
  response->content_type = "text/plain; charset=utf-8";
  response->body = RenderFolded(value.folded);
}

void DashboardService::HandleMetrics(const HttpRequest&,
                                     HttpResponse* response) {
  response->content_type = "text/plain; version=0.0.4; charset=utf-8";
  response->body = rased_->metrics()->RenderPrometheus();
}

namespace {

const char* SeriesKindName(SampledSeries::Kind kind) {
  switch (kind) {
    case SampledSeries::Kind::kCounter:
      return "counter";
    case SampledSeries::Kind::kGauge:
      return "gauge";
    case SampledSeries::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

/// The `rased top` wire format: one meta line, then one tab-separated line
/// per series: name, labels, type, comma-joined bounds, space-separated
/// points as t:v0,v1,...
std::string RenderSelfstatsTsv(const MetricsHistory& history,
                               const std::vector<MetricsHistory::Series>& all,
                               int64_t now_micros, int64_t window_micros) {
  std::string out = StrFormat(
      "#selfstats now=%lld window_micros=%lld interval_micros=%lld "
      "samples=%zu samples_total=%llu resident_bytes=%llu byte_budget=%llu "
      "cost_micros_total=%llu\n",
      static_cast<long long>(now_micros),
      static_cast<long long>(window_micros),
      static_cast<long long>(history.sample_interval_micros()),
      history.num_samples(),
      static_cast<unsigned long long>(history.samples_taken()),
      static_cast<unsigned long long>(history.resident_bytes()),
      static_cast<unsigned long long>(history.ring_byte_budget()),
      static_cast<unsigned long long>(history.sample_cost_micros_total()));
  for (const MetricsHistory::Series& series : all) {
    out += series.name;
    out += '\t';
    out += series.labels;
    out += '\t';
    out += SeriesKindName(series.kind);
    out += '\t';
    for (size_t i = 0; i < series.bounds.size(); ++i) {
      if (i > 0) out += ',';
      out += StrFormat("%lld", static_cast<long long>(series.bounds[i]));
    }
    out += '\t';
    for (size_t p = 0; p < series.points.size(); ++p) {
      const MetricsHistory::Point& point = series.points[p];
      if (p > 0) out += ' ';
      out += StrFormat("%lld:", static_cast<long long>(point.t_micros));
      for (size_t v = 0; v < point.values.size(); ++v) {
        if (v > 0) out += ',';
        out += StrFormat("%llu",
                         static_cast<unsigned long long>(point.values[v]));
      }
    }
    out += '\n';
  }
  return out;
}

}  // namespace

void DashboardService::HandleSelfstats(const HttpRequest& request,
                                       HttpResponse* response) {
  int64_t window_micros = 0;
  if (request.HasParam("window")) {
    auto seconds = ParseUint(request.Param("window"));
    if (!seconds.ok()) {
      WriteError(Status::InvalidArgument("bad window= (want seconds)"),
                 response);
      return;
    }
    window_micros = static_cast<int64_t>(seconds.value()) * 1000000;
  }
  const std::string family = request.Param("family");
  const std::string format = request.Param("format");
  const int64_t now = NowMicros();
  const std::vector<MetricsHistory::Series> series =
      history_.Query(family, window_micros, now);

  if (format == "tsv") {
    response->content_type = "text/tab-separated-values; charset=utf-8";
    response->body = RenderSelfstatsTsv(history_, series, now, window_micros);
    return;
  }
  if (!format.empty() && format != "json") {
    WriteError(Status::InvalidArgument("unknown format '" + format + "'"),
               response);
    return;
  }

  JsonWriter w;
  w.BeginObject();
  w.KV("now_micros", now);
  w.KV("window_micros", window_micros);
  w.KV("interval_micros", history_.sample_interval_micros());
  w.KV("samples_retained", static_cast<uint64_t>(history_.num_samples()));
  w.KV("samples_total", history_.samples_taken());
  w.KV("resident_bytes", history_.resident_bytes());
  w.KV("byte_budget", history_.ring_byte_budget());
  w.KV("sample_cost_micros_total", history_.sample_cost_micros_total());
  w.Key("series");
  w.BeginArray();
  for (const MetricsHistory::Series& s : series) {
    w.BeginObject();
    w.KV("name", std::string_view(s.name));
    w.KV("labels", std::string_view(s.labels));
    w.KV("type", SeriesKindName(s.kind));
    if (s.kind == SampledSeries::Kind::kHistogram) {
      w.Key("bounds");
      w.BeginArray();
      for (int64_t bound : s.bounds) w.Value(bound);
      w.EndArray();
    }
    w.Key("points");
    w.BeginArray();
    for (const MetricsHistory::Point& point : s.points) {
      w.BeginObject();
      w.KV("t", point.t_micros);
      w.Key("v");
      w.BeginArray();
      for (uint64_t value : point.values) w.Value(value);
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  response->body = std::move(w).Finish();
}

void DashboardService::HandleHealthz(const HttpRequest&,
                                     HttpResponse* response) {
  // Liveness only: reachable and able to run a handler. Readiness (can
  // this instance usefully serve?) is /readyz below.
  response->content_type = "text/plain; charset=utf-8";
  response->body = "ok\n";
}

void DashboardService::HandleReadyz(const HttpRequest&,
                                    HttpResponse* response) {
  const int64_t now = NowMicros();

  // Catalog published: the MVCC index has at least one visible version.
  const uint64_t epoch = rased_->index()->epoch();
  const bool catalog_published = epoch > 0;

  // Ingest not wedged: either fully caught up, or it has made progress
  // recently enough. Serve-only instances keep both gauges 0 (= healthy).
  const int64_t lag = ingest_lag_sequences_->value();
  const int64_t last_progress = ingest_last_progress_->value();
  const bool ingest_not_wedged =
      lag <= 0 || last_progress <= 0 ||
      now - last_progress <= options_.max_ingest_idle_micros;

  // SLO not burning: re-evaluate now rather than trusting the last
  // sampler tick, so a probe sees current burn rates.
  const std::vector<SloTracker::ObjectiveState> slo_states =
      slo_.Evaluate(now);
  const bool slo_not_burning = slo_.WorstStatus() != SloStatus::kBurning;

  const bool ready = catalog_published && ingest_not_wedged && slo_not_burning;
  response->status = ready ? 200 : 503;

  JsonWriter w;
  w.BeginObject();
  w.KV("ready", ready);
  w.Key("checks");
  w.BeginObject();
  w.KV("catalog_published", catalog_published);
  w.KV("ingest_not_wedged", ingest_not_wedged);
  w.KV("slo_not_burning", slo_not_burning);
  w.EndObject();
  w.KV("epoch", epoch);
  w.KV("ingest_lag_sequences", lag);
  // Build identity detail: which exact binary (and kernel dispatch state)
  // answered this probe — the same labels as the rased_build_info gauge.
  const BuildInfo build =
      MakeBuildInfo(
          Avx2DispatchLabel(kernels::Avx2CompiledIn(), kernels::Avx2Active()));
  w.Key("build");
  w.BeginObject();
  w.KV("version", std::string_view(build.version));
  w.KV("git_sha", std::string_view(build.git_sha));
  w.KV("compiler", std::string_view(build.compiler));
  w.KV("avx2", std::string_view(build.avx2));
  w.EndObject();
  w.Key("slo");
  w.BeginArray();
  for (const SloTracker::ObjectiveState& state : slo_states) {
    w.BeginObject();
    w.KV("objective", std::string_view(state.name));
    w.KV("status", SloStatusName(state.status));
    w.KV("burn_short_milli",
         static_cast<int64_t>(state.short_window.burn_rate * 1000.0));
    w.KV("burn_long_milli",
         static_cast<int64_t>(state.long_window.burn_rate * 1000.0));
    w.KV("short_events", state.short_window.total_events);
    w.KV("long_events", state.long_window.total_events);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  response->body = std::move(w).Finish();
}

}  // namespace rased

