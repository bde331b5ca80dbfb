#include "traced.h"

#include <cstdlib>
#include <ctime>

#include "collect/changeset_store.h"
#include "collect/daily_crawler.h"
#include "collect/monthly_crawler.h"
#include "cube/cube_codec.h"
#include "dashboard/http_server.h"
#include "dashboard/render.h"
#include "index/cube_builder.h"
#include "synth/update_generator.h"

namespace dashbench {

using rased::AnalysisQuery;
using rased::Date;
using rased::DateRange;

namespace {

// The executor's slice for a query: the default country partition when no
// country is named, set semantics on every IN-list.
rased::CubeSlice SliceFor(const AnalysisQuery& q, const rased::WorldMap& world) {
  rased::CubeSlice slice;
  for (rased::ElementType t : q.element_types) {
    slice.element_types.push_back(static_cast<uint32_t>(t));
  }
  if (q.countries.empty()) {
    slice.countries.push_back(rased::kZoneUnknown);
    for (rased::ZoneId id : world.country_ids()) slice.countries.push_back(id);
  } else {
    for (rased::ZoneId z : q.countries) slice.countries.push_back(z);
  }
  for (rased::RoadTypeId r : q.road_types) slice.road_types.push_back(r);
  for (rased::UpdateType u : q.update_types) {
    slice.update_types.push_back(static_cast<uint32_t>(u));
  }
  slice.Normalize();
  return slice;
}

bool ReplayQuery(const rased::Rased& rased, const AnalysisQuery& q,
                 const rased::RenderContext& ctx, SpanLog* log) {
  int64_t t = log->Start();
  auto result = rased.Query(q);
  log->End("query.execute", t);
  if (!result.ok()) return false;
  const rased::QueryStats& stats = result.value().stats;
  for (const rased::TraceSpan& span : result.value().spans) {
    if (span.name == "aggregate" && log->on) {
      log->us["query.aggregate"].push_back(static_cast<double>(span.wall_micros));
    }
  }
  log->Count("queries");
  log->Count("cubes", static_cast<double>(stats.cubes_total));
  log->Count("rollup_cubes",
             static_cast<double>(stats.cubes_total - stats.cubes_per_level[0]));
  log->Count("page_reads", static_cast<double>(stats.io.page_reads));
  log->Count("read_ops", static_cast<double>(stats.io.read_ops));
  log->Count("bytes_read", static_cast<double>(stats.io.bytes_read));
  log->Count("alloc_ops", static_cast<double>(stats.alloc_ops));

  // The layers under the query, one public call at a time, against one
  // pinned snapshot.
  rased::CatalogSnapshot snapshot = rased.index()->Snapshot();
  t = log->Start();
  rased::QueryPlan plan = rased.executor()->PlanFor(q, snapshot);
  log->End("query.plan", t);

  std::vector<std::shared_ptr<const rased::DataCube>> hits(plan.cubes.size());
  for (size_t i = 0; i < plan.cubes.size(); ++i) {
    rased::PageId page =
        snapshot.PageOf(plan.cubes[i]).value_or(rased::kInvalidPageId);
    t = log->Start();
    hits[i] = rased.cache()->Find(plan.cubes[i], page);
    log->End("cache.probe", t);
    log->Count("probes");
    if (hits[i] != nullptr) log->Count("probe_hits");
    log->Count("encoded_bytes", static_cast<double>(
                                    snapshot.EncodedBytesOf(plan.cubes[i])
                                        .value_or(0)));
  }
  if (plan.cubes.empty()) return true;

  rased::IoStats io;
  t = log->Start();
  auto batch = rased.index()->ReadCubes(snapshot, plan.cubes, &io);
  log->End("index.read_cubes", t);
  if (!batch.ok()) return false;
  // Charged under the default device model (2 ms per device operation plus
  // transfer), whatever model the instance runs with, so that the figure
  // compares across workloads and is not 0 where the instance models none.
  const rased::DeviceModel model;
  log->Count("plan_device_us",
             static_cast<double>(io.read_ops) *
                     static_cast<double>(model.read_latency_us) +
                 static_cast<double>(io.bytes_read) * model.per_byte_us);

  const rased::CubeSchema& schema = rased.options().schema;
  rased::CubeSlice slice = SliceFor(q, rased.world());
  rased::GroupBySpec spec;
  spec.element_type = q.group_element_type;
  spec.country = q.group_country;
  spec.road_type = q.group_road_type;
  spec.update_type = q.group_update_type;
  std::vector<uint64_t> encoded_acc(rased::GroupAccumulatorSize(schema, spec));
  std::vector<uint64_t> dense_acc(encoded_acc.size());
  for (size_t i = 0; i < plan.cubes.size(); ++i) {
    if (batch.value().encoding(i) == rased::CubeEncoding::kSparseCoo) {
      log->Count("sparse_cubes");
    }
    t = log->Start();
    rased::Status st =
        batch.value().AccumulateSlice(i, slice, spec, encoded_acc.data());
    log->End("cube.accumulate_encoded", t);
    if (!st.ok()) return false;
    // The dense kernel runs on the cache's decoded cube when it hit, else
    // on a cube decoded (untimed) from the batch.
    std::shared_ptr<const rased::DataCube> dense = hits[i];
    if (dense == nullptr) {
      auto decoded = batch.value().Decode(i);
      if (!decoded.ok()) return false;
      dense = std::make_shared<rased::DataCube>(std::move(decoded).value());
    }
    t = log->Start();
    dense->View().SumSliceInto(slice, spec, dense_acc.data());
    log->End("cube.sum_dense", t);
  }
  if (encoded_acc != dense_acc) return false;  // the two kernels disagree

  t = log->Start();
  std::string body = rased::RenderJson(result.value(), q, ctx);
  log->End("dashboard.render", t);
  log->Count("response_bytes", static_cast<double>(body.size()));
  return true;
}

}  // namespace

namespace {

// Spans need sub-microsecond resolution: a cache probe is ~100 ns.
int64_t NowNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t SpanLog::Start() const { return on ? NowNanos() : 0; }

void SpanLog::End(const char* name, int64_t start) {
  if (on) us[name].push_back(static_cast<double>(NowNanos() - start) / 1e3);
}

bool ReplayReads(const rased::Rased& rased,
                 const rased::DashboardService& service,
                 const std::vector<Request>& requests, SpanLog* log) {
  rased::RenderContext ctx;
  ctx.world = &rased.world();
  ctx.road_types = rased.road_types();
  for (const Request& r : requests) {
    std::string_view target = r.target;
    size_t qmark = target.find('?');
    rased::HttpRequest http;
    http.method = "GET";
    http.path = std::string(target.substr(0, qmark));
    int64_t t = log->Start();
    http.params = rased::HttpServer::ParseQuery(target.substr(qmark + 1));
    if (r.is_sample()) {
      rased::BoundingBox box{std::strtod(http.Param("min_lat").c_str(), nullptr),
                             std::strtod(http.Param("min_lon").c_str(), nullptr),
                             std::strtod(http.Param("max_lat").c_str(), nullptr),
                             std::strtod(http.Param("max_lon").c_str(), nullptr)};
      log->End("dashboard.parse", t);
      t = log->Start();
      auto samples = rased.SampleInBox(box, 100);
      log->End("warehouse.sample", t);
      if (!samples.ok()) return false;
      continue;
    }
    auto query = service.ParseQueryParams(http);
    log->End("dashboard.parse", t);
    if (!query.ok()) return false;
    if (!ReplayQuery(rased, query.value(), ctx, log)) return false;
  }
  return true;
}

bool ReplayIngest(rased::Rased* rased, const FixtureSpec& spec, int days,
                  SpanLog* log) {
  auto gen = MakeGenerator(spec, rased);
  const rased::CubeSchema& schema = rased->options().schema;
  rased::CubeBuilder builder(schema, &rased->world());
  const Date first = rased->index()->coverage().last.next();
  for (Date day = first; day < first.AddDays(days); day = day.next()) {
    rased::DayArtifacts artifacts = gen->GenerateDayArtifacts(day);
    const uint64_t written_before = rased->index()->pager()->stats().bytes_written;
    const uint64_t epoch_before = rased->index()->epoch();

    int64_t t = log->Start();
    rased::ChangesetStore changesets;
    std::vector<rased::UpdateRecord> records;
    rased::DailyCrawler crawler(&rased->world(), rased->road_types());
    if (!changesets.AddFromXml(artifacts.changesets_xml).ok() ||
        !crawler.CrawlDiff(artifacts.osc_xml, changesets, &records).ok()) {
      return false;
    }
    log->End("collect.crawl", t);
    log->Count("records", static_cast<double>(records.size()));

    rased::DataCube cube(schema);
    for (const rased::UpdateRecord& r : records) builder.AddRecord(r, &cube);
    t = log->Start();
    if (!rased->index()->AppendDay(day, cube).ok()) return false;
    log->End("index.append_day", t);
    t = log->Start();
    if (!rased->warehouse()->Append(records).ok()) return false;
    log->End("warehouse.append", t);
    log->Count("days");
    log->Count("bytes_written",
               static_cast<double>(rased->index()->pager()->stats().bytes_written -
                                   written_before));
    log->Count("publications",
               static_cast<double>(rased->index()->epoch() - epoch_before));

    if (!day.is_month_end()) continue;
    const Date month = day.month_start();
    rased::MonthArtifacts month_artifacts = gen->GenerateMonthArtifacts(month);
    rased::ChangesetStore month_changesets;
    std::vector<rased::UpdateRecord> month_records;
    rased::MonthlyCrawler monthly(&rased->world(), rased->road_types());
    if (!month_changesets.AddFromXml(month_artifacts.changesets_xml).ok() ||
        !monthly
             .CrawlHistory(month_artifacts.history_xml, month_changesets,
                           DateRange(month, day), &month_records)
             .ok()) {
      return false;
    }
    std::map<Date, rased::DataCube> by_day =
        builder.BuildDailyCubes(month_records);
    std::vector<rased::DataCube> cubes;
    for (Date d = month; d <= day; d = d.next()) {
      auto it = by_day.find(d);
      cubes.push_back(it != by_day.end() ? std::move(it->second)
                                         : rased::DataCube(schema));
    }
    t = log->Start();
    if (!rased->index()->RebuildMonth(month, cubes).ok()) return false;
    log->End("index.rebuild_month", t);
  }
  return true;
}

bool IngestThroughCore(rased::Rased* rased, const FixtureSpec& spec, int days,
                       SpanLog* log) {
  auto gen = MakeGenerator(spec, rased);
  const Date first = rased->index()->coverage().last.next();
  for (Date day = first; day < first.AddDays(days); day = day.next()) {
    rased::DayArtifacts artifacts = gen->GenerateDayArtifacts(day);
    int64_t t = log->Start();
    if (!rased->IngestDailyArtifacts(day, artifacts.osc_xml,
                                     artifacts.changesets_xml)
             .ok()) {
      return false;
    }
    log->End("core.ingest_day", t);
    if (!day.is_month_end()) continue;
    rased::MonthArtifacts month = gen->GenerateMonthArtifacts(day.month_start());
    t = log->Start();
    if (!rased->ApplyMonthlyArtifacts(day.month_start(), month.history_xml,
                                      month.changesets_xml)
             .ok()) {
      return false;
    }
    log->End("core.apply_month", t);
    if (!rased->Sync().ok()) return false;
  }
  return true;
}

}  // namespace dashbench
