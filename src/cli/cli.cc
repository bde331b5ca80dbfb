#include "cli/cli.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/rased.h"
#include "core/replication_ingestor.h"
#include "dashboard/dashboard_service.h"
#include "dashboard/render.h"
#include "io/env.h"
#include "obs/profiler.h"
#include "obs/request_context.h"
#include "obs/slo.h"
#include "query/sql_parser.h"
#include "synth/update_generator.h"
#include "util/clock.h"
#include "util/config.h"
#include "util/str_util.h"

namespace rased {

namespace {

constexpr char kUsage[] = R"(rased — road-network update monitoring for OSM

usage: rased <command> key=value...

commands:
  init          create a RASED instance
                  dir=DIR [schema=paper|bench] [levels=1..4] [no_warehouse=1]
  synth         generate synthetic OSM crawler input files
                  dir=OUT from=YYYY-MM-DD to=YYYY-MM-DD [seed=N] [rate=X]
                  [schema=paper|bench]  (must match the consuming instance)
                  [publish=FEEDDIR]     (emit a replication feed instead)
  ingest-day    crawl one day's diff + changesets into the instance
                  dir=DIR date=YYYY-MM-DD osc=FILE changesets=FILE
  ingest-month  apply a monthly full-history pass
                  dir=DIR month=YYYY-MM-01 history=FILE changesets=FILE
  query         run an analysis query
                  dir=DIR [from=.. to=..] [countries=Germany,Qatar]
                  [element_types=way,node] [road_types=residential]
                  [update_types=new,delete,geometry,metadata]
                  [group=country,date,element_type,road_type,update_type]
                  [percentage=1]
                  [format=table|bar|json|csv|timeseries|choropleth|pivot]
                  or the paper's SQL directly:
                  sql="SELECT Country, COUNT(*) FROM UpdateList
                       WHERE Date BETWEEN 2021-01-01 AND 2021-12-31
                       GROUP BY Country"
  sample        sample concrete updates (Section IV-B)
                  dir=DIR changeset=ID | box=minlat,minlon,maxlat,maxlon [n=N]
  sync          catch up from a replication feed directory
                  dir=DIR feed=FEEDDIR [finalize=1]
                  (a feed is published by `synth publish=FEEDDIR` or any
                   OSM-style sequence of NNNNNNNNN.osc + state files)
  stats         print index/cache/storage statistics
                  dir=DIR
  metrics       print the instance's metrics in Prometheus text format
                  dir=DIR [probe=1]  (probe runs one full-coverage query
                  first so the query/cache/pager series carry real traffic)
  serve         start the web dashboard
                  dir=DIR [port=N] [serve_seconds=N (0 = forever)]
  top           live self-monitoring view against a running dashboard
                  port=N [host=127.0.0.1] [window=SEC] [interval=SEC]
                  [iterations=N (0 = forever; 1 prints one frame and exits)]
  profile       fetch a CPU profile from a running dashboard
                  port=N [host=127.0.0.1]
                  [seconds=N (capture the next N seconds, default 5)]
                  [window=N (instead: merge retained always-on windows)]
                  [top=20] [format=table|folded]
                  (folded output pipes into flamegraph.pl or speedscope)
  help          show this message

ingest-*, query, sample, sync, stats, metrics and serve also take
  [cache_mb=N (cube cache budget in MiB, default 2048)] [device_us=N]
)";

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int FailUsage(const std::string& message) {
  std::fprintf(stderr, "error: %s\n\n%s", message.c_str(), kUsage);
  return 2;
}

Result<std::unique_ptr<Rased>> OpenInstance(const Config& config,
                                            bool warm_cache) {
  std::string dir = config.GetString("dir", "");
  if (dir.empty()) return Status::InvalidArgument("dir= is required");
  RASED_ASSIGN_OR_RETURN(RasedOptions options, Rased::LoadOptions(dir));
  // Cache size is a budget of resident bytes; the default is the paper's
  // 2 GiB (CacheOptions).
  if (config.Has("cache_mb")) {
    options.cache.byte_budget =
        static_cast<uint64_t>(config.GetInt("cache_mb", 0)) << 20;
  }
  options.device.read_latency_us = config.GetInt("device_us", 0);
  options.device.write_latency_us = options.device.read_latency_us;
  RASED_ASSIGN_OR_RETURN(std::unique_ptr<Rased> rased,
                         Rased::Open(options));
  if (warm_cache) {
    RASED_RETURN_IF_ERROR(rased->WarmCache());
  }
  return rased;
}

int CmdInit(const Config& config) {
  RasedOptions options;
  options.dir = config.GetString("dir", "");
  if (options.dir.empty()) return FailUsage("init needs dir=");
  std::string schema = config.GetString("schema", "paper");
  if (schema == "paper") {
    options.schema = CubeSchema::PaperScale();
  } else if (schema == "bench") {
    options.schema = CubeSchema::BenchScale();
  } else {
    return FailUsage("schema must be 'paper' or 'bench'");
  }
  options.num_levels = static_cast<int>(config.GetInt("levels", 4));
  options.enable_warehouse = !config.GetBool("no_warehouse", false);
  auto rased = Rased::Create(options);
  if (!rased.ok()) return Fail(rased.status());
  if (auto s = rased.value()->Sync(); !s.ok()) return Fail(s);
  std::printf("initialized RASED in %s\n  %s\n  %d levels, warehouse %s\n",
              options.dir.c_str(), options.schema.ToString().c_str(),
              options.num_levels,
              options.enable_warehouse ? "enabled" : "disabled");
  return 0;
}

int CmdSynth(const Config& config) {
  std::string dir = config.GetString("dir", "");
  if (dir.empty() && !config.Has("publish")) {
    return FailUsage("synth needs dir= (or publish=FEEDDIR)");
  }
  auto from = Date::Parse(config.GetString("from", ""));
  auto to = Date::Parse(config.GetString("to", ""));
  if (!from.ok() || !to.ok()) {
    return FailUsage("synth needs from=YYYY-MM-DD to=YYYY-MM-DD");
  }
  if (!dir.empty()) {
    if (auto s = env::CreateDirs(dir); !s.ok()) return Fail(s);
  }

  SynthOptions synth;
  synth.seed = static_cast<uint64_t>(config.GetInt("seed", 42));
  synth.base_updates_per_day = config.GetDouble("rate", 500.0);
  synth.period = DateRange(from.value(), to.value());
  // The generator's world must match the consuming instance's schema —
  // zone grids differ between scales, so a mismatch scrambles locations.
  std::string schema_name = config.GetString("schema", "paper");
  CubeSchema schema = schema_name == "bench" ? CubeSchema::BenchScale()
                                             : CubeSchema::PaperScale();
  if (schema_name != "paper" && schema_name != "bench") {
    return FailUsage("schema must be 'paper' or 'bench'");
  }
  WorldMap world(schema.num_countries);
  RoadTypeTable roads(schema.num_road_types);
  UpdateGenerator generator(synth, &world, &roads);

  // publish=FEEDDIR emits a replication feed (state.txt + sequences)
  // instead of loose per-day files, for consumption by `rased sync`.
  if (config.Has("publish")) {
    ReplicationDirectory feed(config.GetString("publish", ""));
    uint64_t seq = 0;
    if (auto latest = feed.LatestState(); latest.ok()) {
      seq = latest.value().sequence;
    }
    for (Date d = from.value(); d <= to.value(); d = d.next()) {
      DayArtifacts files = generator.GenerateDayArtifacts(d);
      Status s = feed.Publish(++seq, files.osc_xml,
                              OsmTimestamp{d, 86399}, files.changesets_xml);
      if (!s.ok()) return Fail(s);
    }
    std::printf("published %s as sequences up to %llu in %s\n",
                synth.period.ToString().c_str(),
                static_cast<unsigned long long>(seq),
                feed.dir().c_str());
    return 0;
  }

  for (Date d = from.value(); d <= to.value(); d = d.next()) {
    DayArtifacts files = generator.GenerateDayArtifacts(d);
    Status s = env::WriteFile(env::JoinPath(dir, d.ToString() + ".osc"),
                              files.osc_xml);
    if (s.ok()) {
      s = env::WriteFile(
          env::JoinPath(dir, d.ToString() + ".changesets.xml"),
          files.changesets_xml);
    }
    if (!s.ok()) return Fail(s);
    // Month artifacts once per completed month inside the range.
    if (d.is_month_end() && d.month_start() >= from.value()) {
      MonthArtifacts month = generator.GenerateMonthArtifacts(d.month_start());
      std::string stem = d.month_start().ToString().substr(0, 7);
      s = env::WriteFile(env::JoinPath(dir, stem + ".history.xml"),
                         month.history_xml);
      if (s.ok()) {
        s = env::WriteFile(
            env::JoinPath(dir, stem + ".history-changesets.xml"),
            month.changesets_xml);
      }
      if (!s.ok()) return Fail(s);
    }
  }
  std::printf("wrote synthetic crawler input for %s to %s\n",
              synth.period.ToString().c_str(), dir.c_str());
  return 0;
}

int CmdIngestDay(const Config& config) {
  auto date = Date::Parse(config.GetString("date", ""));
  if (!date.ok()) return FailUsage("ingest-day needs date=YYYY-MM-DD");
  auto osc = env::ReadFile(config.GetString("osc", ""));
  if (!osc.ok()) return Fail(osc.status());
  auto changesets = env::ReadFile(config.GetString("changesets", ""));
  if (!changesets.ok()) return Fail(changesets.status());

  auto rased = OpenInstance(config, /*warm_cache=*/false);
  if (!rased.ok()) return Fail(rased.status());
  Status s = rased.value()->IngestDailyArtifacts(date.value(), osc.value(),
                                                 changesets.value());
  if (!s.ok()) return Fail(s);
  if (s = rased.value()->Sync(); !s.ok()) return Fail(s);
  std::printf("ingested %s (coverage now %s)\n",
              date.value().ToString().c_str(),
              rased.value()->index()->coverage().ToString().c_str());
  return 0;
}

int CmdIngestMonth(const Config& config) {
  auto month = Date::Parse(config.GetString("month", ""));
  if (!month.ok() || !month.value().is_month_start()) {
    return FailUsage("ingest-month needs month=YYYY-MM-01");
  }
  auto history = env::ReadFile(config.GetString("history", ""));
  if (!history.ok()) return Fail(history.status());
  auto changesets = env::ReadFile(config.GetString("changesets", ""));
  if (!changesets.ok()) return Fail(changesets.status());

  auto rased = OpenInstance(config, /*warm_cache=*/false);
  if (!rased.ok()) return Fail(rased.status());
  Status s = rased.value()->ApplyMonthlyArtifacts(
      month.value(), history.value(), changesets.value());
  if (!s.ok()) return Fail(s);
  if (s = rased.value()->Sync(); !s.ok()) return Fail(s);
  std::printf("rebuilt %.7s from the monthly full-history pass\n",
              month.value().ToString().c_str());
  return 0;
}

/// Bridges CLI key=value arguments onto the dashboard's query-parameter
/// parser, so `rased query` and GET /api/query accept the same names.
HttpRequest RequestFromConfig(const Config& config) {
  HttpRequest request;
  for (const char* key :
       {"from", "to", "countries", "element_types", "road_types",
        "update_types", "group", "percentage"}) {
    if (config.Has(key)) {
      std::string value = config.GetString(key, "");
      request.params[key] = value;
    }
  }
  return request;
}

int CmdQuery(const Config& config) {
  auto rased = OpenInstance(config, /*warm_cache=*/true);
  if (!rased.ok()) return Fail(rased.status());
  // A CLI run mints a trace id like a dashboard request would, so LOG()
  // lines emitted during execution and the trace-ring entry correlate.
  ScopedRequestContext request_scope(MintTraceId());
  DashboardService service(rased.value().get());  // parser reuse; not started

  // Queries may be given as key=value filters or as the paper's SQL.
  Result<AnalysisQuery> query = AnalysisQuery{};
  if (config.Has("sql")) {
    SqlParser parser(&rased.value()->world(), rased.value()->road_types());
    query = parser.Parse(config.GetString("sql", ""));
  } else {
    query = service.ParseQueryParams(RequestFromConfig(config));
  }
  if (!query.ok()) return Fail(query.status());
  auto result = rased.value()->Query(query.value());
  if (!result.ok()) return Fail(result.status());

  RenderContext ctx{&rased.value()->world(), rased.value()->road_types()};
  const int64_t t_render = NowMicros();
  const std::string format = config.GetString("format", "");
  auto rendered =
      RenderFormat(format, "table", result.value(), query.value(), ctx);
  if (rendered.ok()) {
    // JSON is one line; the terminal renderers end their own lines.
    std::printf(format == "json" ? "%s\n" : "%s",
                rendered.value().body.c_str());
  }
  // Record the run in the instance's trace ring, same shape as the
  // dashboard path, so slow CLI queries hit the slow-query log too.
  const QueryTrace trace = MakeQueryTrace(
      query.value(), std::move(result).value(), NowMicros() - t_render);
  rased.value()->traces()->Record(trace);
  if (!rendered.ok()) return Fail(rendered.status());

  std::fprintf(stderr, "-- %llu cubes (%llu cached), %.3f ms\n",
               static_cast<unsigned long long>(trace.stats.cubes_total),
               static_cast<unsigned long long>(trace.stats.cubes_from_cache),
               trace.stats.total_micros() / 1000.0);
  return 0;
}

int CmdSample(const Config& config) {
  auto rased = OpenInstance(config, /*warm_cache=*/false);
  if (!rased.ok()) return Fail(rased.status());
  size_t n = static_cast<size_t>(config.GetInt("n", 100));

  Result<std::vector<UpdateRecord>> samples = std::vector<UpdateRecord>{};
  if (config.Has("changeset")) {
    auto id = ParseUint(config.GetString("changeset", ""));
    if (!id.ok()) return Fail(id.status());
    samples = rased.value()->SampleByChangeset(id.value());
  } else if (config.Has("box")) {
    std::vector<std::string> parts = Split(config.GetString("box", ""), ',');
    if (parts.size() != 4) {
      return FailUsage("box needs minlat,minlon,maxlat,maxlon");
    }
    BoundingBox box;
    auto a = ParseDouble(parts[0]), b = ParseDouble(parts[1]),
         c = ParseDouble(parts[2]), d = ParseDouble(parts[3]);
    if (!a.ok() || !b.ok() || !c.ok() || !d.ok()) {
      return FailUsage("box needs four numbers");
    }
    box = BoundingBox{a.value(), b.value(), c.value(), d.value()};
    samples = rased.value()->SampleInBox(box, n);
  } else {
    return FailUsage("sample needs changeset= or box=");
  }
  if (!samples.ok()) return Fail(samples.status());
  for (const UpdateRecord& r : samples.value()) {
    std::printf("%s\n", r.ToString().c_str());
  }
  std::fprintf(stderr, "-- %zu sample(s)\n", samples.value().size());
  return 0;
}

int CmdSync(const Config& config) {
  std::string feed = config.GetString("feed", "");
  if (feed.empty()) return FailUsage("sync needs feed=FEEDDIR");
  auto rased = OpenInstance(config, /*warm_cache=*/false);
  if (!rased.ok()) return Fail(rased.status());
  ReplicationIngestor ingestor(rased.value().get(), feed);
  auto stats = ingestor.CatchUp(config.GetBool("finalize", false));
  if (!stats.ok()) return Fail(stats.status());
  if (auto s = rased.value()->Sync(); !s.ok()) return Fail(s);
  std::printf("applied %llu sequence(s): %llu day(s), %llu update(s); "
              "coverage now %s\n",
              static_cast<unsigned long long>(
                  stats.value().sequences_applied),
              static_cast<unsigned long long>(stats.value().days_ingested),
              static_cast<unsigned long long>(
                  stats.value().records_ingested),
              rased.value()->index()->coverage().ToString().c_str());
  return 0;
}

int CmdStats(const Config& config) {
  auto rased = OpenInstance(config, /*warm_cache=*/false);
  if (!rased.ok()) return Fail(rased.status());
  IndexStorageStats stats = rased.value()->index()->StorageStats();
  std::printf("coverage:   %s\n",
              rased.value()->index()->coverage().ToString().c_str());
  std::printf("schema:     %s\n",
              rased.value()->options().schema.ToString().c_str());
  std::printf("cubes:      %llu daily, %llu weekly, %llu monthly, "
              "%llu yearly (%llu total)\n",
              static_cast<unsigned long long>(stats.cubes_per_level[0]),
              static_cast<unsigned long long>(stats.cubes_per_level[1]),
              static_cast<unsigned long long>(stats.cubes_per_level[2]),
              static_cast<unsigned long long>(stats.cubes_per_level[3]),
              static_cast<unsigned long long>(stats.total_cubes));
  std::printf("index file: %.1f MB\n", stats.file_bytes / 1048576.0);
  if (rased.value()->warehouse() != nullptr) {
    std::printf("warehouse:  %llu update records\n",
                static_cast<unsigned long long>(
                    rased.value()->warehouse()->num_records()));
  }
  return 0;
}

int CmdMetrics(const Config& config) {
  auto rased = OpenInstance(config, /*warm_cache=*/true);
  if (!rased.ok()) return Fail(rased.status());
  if (config.GetBool("probe", false)) {
    // One full-coverage grouped query drives real traffic through the
    // cache, pager, and executor so their series show non-zero values.
    AnalysisQuery probe;
    probe.range = rased.value()->index()->coverage();
    probe.group_country = true;
    if (auto result = rased.value()->Query(probe); !result.ok()) {
      return Fail(result.status());
    }
  }
  std::printf("%s", rased.value()->metrics()->RenderPrometheus().c_str());
  return 0;
}

// ---- rased top ------------------------------------------------------------

/// One series out of /api/selfstats?format=tsv. The producer is
/// dashboard_service.cc RenderSelfstatsTsv; the shapes must stay in sync.
struct TopSeries {
  std::string name;
  std::string labels;  // "" or {k="v",...}, keys sorted
  std::string type;    // "counter" | "gauge" | "histogram"
  std::vector<int64_t> bounds;
  struct Point {
    int64_t t_micros = 0;
    std::vector<uint64_t> values;
  };
  std::vector<Point> points;
};

struct TopSnapshot {
  int64_t now_micros = 0;
  int64_t interval_micros = 0;
  uint64_t samples = 0;
  uint64_t samples_total = 0;
  uint64_t resident_bytes = 0;
  uint64_t byte_budget = 0;
  uint64_t cost_micros_total = 0;
  std::vector<TopSeries> series;
};

/// Minimal HTTP/1.1 GET against the dashboard; returns the body after
/// asserting a 200 status line.
Result<std::string> HttpGetBody(const std::string& host, int port,
                                const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket() failed");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("host must be an IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError(
        StrFormat("connect to %s:%d failed", host.c_str(), port));
  }
  const std::string request =
      StrFormat("GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n",
                target.c_str(), host.c_str());
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("send() failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      ::close(fd);
      return Status::IOError("recv() failed");
    }
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (response.rfind("HTTP/1.1 200", 0) != 0) {
    const size_t line_end = response.find("\r\n");
    return Status::IOError("GET " + target + ": " +
                           response.substr(0, line_end));
  }
  const size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) {
    return Status::Corruption("malformed HTTP response (no blank line)");
  }
  return response.substr(body + 4);
}

Result<TopSnapshot> ParseSelfstatsTsv(const std::string& body) {
  TopSnapshot snap;
  const std::vector<std::string> lines = Split(body, '\n');
  if (lines.empty() || lines[0].rfind("#selfstats", 0) != 0) {
    return Status::Corruption("selfstats: missing #selfstats meta line");
  }
  for (const std::string& token : Split(lines[0], ' ')) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string_view key = std::string_view(token).substr(0, eq);
    auto value = ParseUint(std::string_view(token).substr(eq + 1));
    if (!value.ok()) continue;
    if (key == "now") {
      snap.now_micros = static_cast<int64_t>(value.value());
    } else if (key == "interval_micros") {
      snap.interval_micros = static_cast<int64_t>(value.value());
    } else if (key == "samples") {
      snap.samples = value.value();
    } else if (key == "samples_total") {
      snap.samples_total = value.value();
    } else if (key == "resident_bytes") {
      snap.resident_bytes = value.value();
    } else if (key == "byte_budget") {
      snap.byte_budget = value.value();
    } else if (key == "cost_micros_total") {
      snap.cost_micros_total = value.value();
    }
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::vector<std::string> cols = Split(lines[i], '\t');
    if (cols.size() != 5) {
      return Status::Corruption("selfstats: bad series line: " + lines[i]);
    }
    TopSeries series;
    series.name = cols[0];
    series.labels = cols[1];
    series.type = cols[2];
    if (!cols[3].empty()) {
      for (const std::string& bound : Split(cols[3], ',')) {
        RASED_ASSIGN_OR_RETURN(int64_t b, ParseInt(bound));
        series.bounds.push_back(b);
      }
    }
    if (!cols[4].empty()) {
      for (const std::string& encoded : Split(cols[4], ' ')) {
        const size_t colon = encoded.find(':');
        if (colon == std::string::npos) {
          return Status::Corruption("selfstats: bad point: " + encoded);
        }
        TopSeries::Point point;
        RASED_ASSIGN_OR_RETURN(
            point.t_micros,
            ParseInt(std::string_view(encoded).substr(0, colon)));
        for (const std::string& v :
             Split(std::string_view(encoded).substr(colon + 1), ',')) {
          RASED_ASSIGN_OR_RETURN(uint64_t value, ParseUint(v));
          point.values.push_back(value);
        }
        series.points.push_back(std::move(point));
      }
    }
    snap.series.push_back(std::move(series));
  }
  return snap;
}

/// Counter change from the oldest to the newest retained sample, summed
/// across every series of the family, plus the widest spanned wall time.
struct CounterWindow {
  uint64_t events = 0;
  int64_t span_micros = 0;
};

CounterWindow CounterDelta(const TopSnapshot& snap, std::string_view name) {
  CounterWindow w;
  for (const TopSeries& s : snap.series) {
    if (s.name != name || s.type != "counter" || s.points.size() < 2) {
      continue;
    }
    const TopSeries::Point& first = s.points.front();
    const TopSeries::Point& last = s.points.back();
    if (first.values.empty() || last.values.empty()) continue;
    w.events += last.values[0] - first.values[0];
    w.span_micros = std::max(w.span_micros, last.t_micros - first.t_micros);
  }
  return w;
}

double RatePerSec(const CounterWindow& w) {
  return w.span_micros > 0 ? w.events * 1e6 / w.span_micros : 0.0;
}

/// Newest value of the first gauge series matching `name` whose label
/// string contains `labels_filter` (empty matches any).
bool GaugeLatest(const TopSnapshot& snap, std::string_view name,
                 std::string_view labels_filter, int64_t* out) {
  for (const TopSeries& s : snap.series) {
    if (s.name != name || s.type != "gauge" || s.points.empty()) continue;
    if (!labels_filter.empty() &&
        s.labels.find(labels_filter) == std::string::npos) {
      continue;
    }
    if (s.points.back().values.empty()) continue;
    *out = static_cast<int64_t>(s.points.back().values[0]);
    return true;
  }
  return false;
}

/// Upper bound (micros) of the bucket holding quantile `q` of the
/// window's observations, bucket deltas merged across every series of
/// the histogram family. False when the window saw no observations.
bool HistQuantileMicros(const TopSnapshot& snap, std::string_view name,
                        double q, int64_t* out_micros) {
  std::vector<int64_t> bounds;
  std::vector<uint64_t> deltas;  // finite buckets + the +Inf bucket
  for (const TopSeries& s : snap.series) {
    if (s.name != name || s.type != "histogram" || s.points.size() < 2) {
      continue;
    }
    if (bounds.empty()) {
      bounds = s.bounds;
      deltas.assign(bounds.size() + 1, 0);
    }
    if (s.bounds != bounds) continue;  // mismatched layouts never merge
    // Point layout: [count, sum-bits, bucket_0 .. bucket_n(+Inf)].
    const std::vector<uint64_t>& first = s.points.front().values;
    const std::vector<uint64_t>& last = s.points.back().values;
    const size_t want = 2 + bounds.size() + 1;
    if (first.size() != want || last.size() != want) continue;
    for (size_t b = 0; b + 2 < want; ++b) {
      deltas[b] += last[b + 2] - first[b + 2];
    }
  }
  uint64_t total = 0;
  for (uint64_t d : deltas) total += d;
  if (total == 0) return false;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  if (rank >= total) rank = total - 1;
  uint64_t cumulative = 0;
  for (size_t b = 0; b < deltas.size(); ++b) {
    cumulative += deltas[b];
    if (cumulative > rank) {
      *out_micros = b < bounds.size()   ? bounds[b]
                    : bounds.empty()    ? 0
                                        : bounds.back() * 2;  // +Inf bucket
      return true;
    }
  }
  return false;
}

std::string LabelValue(const std::string& labels, const std::string& key) {
  const std::string needle = key + "=\"";
  const size_t at = labels.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = labels.find('"', start);
  return end == std::string::npos ? "" : labels.substr(start, end - start);
}

std::string FormatMillis(int64_t micros) {
  return StrFormat("%.1fms", micros / 1000.0);
}

std::string FormatKib(uint64_t bytes) {
  return StrFormat("%.1fKiB", bytes / 1024.0);
}

std::string RenderTopFrame(const TopSnapshot& snap, const std::string& host,
                           int port, int64_t window_seconds) {
  std::string out = StrFormat(
      "rased top — %s:%d   window %llds   %llu sample(s) retained "
      "(%llu taken, every %llds)\n\n",
      host.c_str(), port, static_cast<long long>(window_seconds),
      static_cast<unsigned long long>(snap.samples),
      static_cast<unsigned long long>(snap.samples_total),
      static_cast<long long>(snap.interval_micros / 1000000));

  const CounterWindow http = CounterDelta(snap, "rased_http_requests_total");
  int64_t p50 = 0, p99 = 0;
  const bool have_latency =
      HistQuantileMicros(snap, "rased_http_request_micros", 0.50, &p50) &&
      HistQuantileMicros(snap, "rased_http_request_micros", 0.99, &p99);
  out += StrFormat("  http      %6.1f req/s   p50 %s   p99 %s\n",
                   RatePerSec(http),
                   have_latency ? FormatMillis(p50).c_str() : "-",
                   have_latency ? FormatMillis(p99).c_str() : "-");

  const CounterWindow queries = CounterDelta(snap, "rased_queries_total");
  out += StrFormat("  queries   %6.1f q/s\n", RatePerSec(queries));

  const CounterWindow hits = CounterDelta(snap, "rased_cache_hits_total");
  const CounterWindow misses = CounterDelta(snap, "rased_cache_misses_total");
  const uint64_t lookups = hits.events + misses.events;
  if (lookups > 0) {
    out += StrFormat(
        "  cache     %5.1f%% hit rate   (%llu hits, %llu misses)\n",
        100.0 * static_cast<double>(hits.events) /
            static_cast<double>(lookups),
        static_cast<unsigned long long>(hits.events),
        static_cast<unsigned long long>(misses.events));
  } else {
    out += "  cache     idle (no lookups in window)\n";
  }

  int64_t lag = 0;
  if (GaugeLatest(snap, "rased_ingest_lag_sequences", "", &lag)) {
    out += StrFormat("  ingest    lag %lld sequence(s)\n",
                     static_cast<long long>(lag));
  }

  out += StrFormat(
      "  sampler   %s resident of %s budget, avg cost %lldus/sample\n",
      FormatKib(snap.resident_bytes).c_str(),
      FormatKib(snap.byte_budget).c_str(),
      static_cast<long long>(
          snap.samples_total > 0
              ? snap.cost_micros_total /
                    static_cast<int64_t>(snap.samples_total)
              : 0));

  bool slo_header = false;
  for (const TopSeries& s : snap.series) {
    if (s.name != "rased_slo_status" || s.points.empty() ||
        s.points.back().values.empty()) {
      continue;
    }
    const std::string objective = LabelValue(s.labels, "objective");
    const int64_t status = static_cast<int64_t>(s.points.back().values[0]);
    int64_t burn_short = 0, burn_long = 0;
    GaugeLatest(snap, "rased_slo_burn_rate",
                "objective=\"" + objective + "\",window=\"long\"",
                &burn_long);
    GaugeLatest(snap, "rased_slo_burn_rate",
                "objective=\"" + objective + "\",window=\"short\"",
                &burn_short);
    out += StrFormat(
        "  %s%-24s %-8s burn %.2f short / %.2f long\n",
        slo_header ? "          " : "slo       ", objective.c_str(),
        SloStatusName(static_cast<SloStatus>(status)),
        burn_short / 1000.0, burn_long / 1000.0);
    slo_header = true;
  }
  return out;
}

int CmdTop(const Config& config) {
  const int port = static_cast<int>(config.GetInt("port", 0));
  if (port <= 0) return FailUsage("top needs port= of a running dashboard");
  const std::string host = config.GetString("host", "127.0.0.1");
  const int64_t window_seconds = config.GetInt("window", 300);
  int64_t interval_seconds = config.GetInt("interval", 2);
  if (interval_seconds <= 0) interval_seconds = 1;
  const int64_t iterations = config.GetInt("iterations", 0);
  const std::string target =
      StrFormat("/api/selfstats?format=tsv&window=%lld",
                static_cast<long long>(window_seconds));
  for (int64_t frame = 0; iterations == 0 || frame < iterations; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::seconds(interval_seconds));
    }
    auto body = HttpGetBody(host, port, target);
    if (!body.ok()) return Fail(body.status());
    auto snap = ParseSelfstatsTsv(body.value());
    if (!snap.ok()) return Fail(snap.status());
    // Multi-frame mode repaints in place; a single frame (iterations=1,
    // the scriptable probe mode) prints plainly.
    if (iterations != 1) std::printf("\x1b[H\x1b[2J");
    std::printf("%s",
                RenderTopFrame(snap.value(), host, port, window_seconds)
                    .c_str());
    std::fflush(stdout);
  }
  return 0;
}

/// Renders top-N frames of a folded profile as self/cumulative tables —
/// the quick look before reaching for a flamegraph.
int CmdProfile(const Config& config) {
  const int port = static_cast<int>(config.GetInt("port", 0));
  if (port <= 0) return FailUsage("profile needs port=");
  const std::string host = config.GetString("host", "127.0.0.1");
  std::string target;
  if (config.Has("window")) {
    target = StrFormat("/api/profile?window=%lld&format=folded",
                       static_cast<long long>(config.GetInt("window", 60)));
  } else {
    target = StrFormat("/api/profile?seconds=%lld&format=folded",
                       static_cast<long long>(config.GetInt("seconds", 5)));
  }
  auto body = HttpGetBody(host, port, target);
  if (!body.ok()) return Fail(body.status());

  const std::string format = config.GetString("format", "table");
  if (format == "folded") {
    // Verbatim pass-through: `rased profile ... format=folded |
    // flamegraph.pl > flame.svg`.
    std::printf("%s", body.value().c_str());
    return 0;
  }
  if (format != "table") {
    return FailUsage("profile format= must be table or folded");
  }

  auto folded = ParseFolded(body.value());
  if (!folded.ok()) return Fail(folded.status());
  uint64_t total = 0;
  for (const auto& [stack, count] : folded.value()) total += count;
  if (total == 0) {
    std::printf("profile: 0 samples (idle instance or capture too short)\n");
    return 0;
  }
  const size_t top_n = static_cast<size_t>(config.GetInt("top", 20));
  const std::vector<FrameTotals> frames = TopFrames(folded.value(), top_n);
  auto pct = [total](uint64_t n) {
    return 100.0 * static_cast<double>(n) / static_cast<double>(total);
  };
  std::printf("profile: %llu samples, %zu unique stacks\n",
              static_cast<unsigned long long>(total), folded.value().size());
  std::printf("%10s %7s %10s %7s  %s\n", "cum", "cum%", "self", "self%",
              "frame");
  for (const FrameTotals& frame : frames) {
    std::printf("%10llu %6.2f%% %10llu %6.2f%%  %s\n",
                static_cast<unsigned long long>(frame.cumulative),
                pct(frame.cumulative),
                static_cast<unsigned long long>(frame.self), pct(frame.self),
                frame.name.c_str());
  }
  return 0;
}

int CmdServe(const Config& config) {
  // The serve main thread mostly sleeps, but registering it keeps any CPU
  // it does burn attributable alongside the HTTP workers.
  ProfilerThreadScope profiler_scope("serve-main");
  auto rased = OpenInstance(config, /*warm_cache=*/true);
  if (!rased.ok()) return Fail(rased.status());
  DashboardService service(rased.value().get());
  Status s = service.Start(static_cast<int>(config.GetInt("port", 0)));
  if (!s.ok()) return Fail(s);
  std::printf("RASED dashboard: http://127.0.0.1:%d/\n", service.port());
  // Scripts (tools/check.sh metrics smoke) read the port line from a
  // redirected stdout while the server is still running.
  std::fflush(stdout);
  int64_t serve_seconds = config.GetInt("serve_seconds", 0);
  if (serve_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
  } else {
    for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
  }
  service.Stop();
  return 0;
}

}  // namespace

int RunCli(int argc, const char* const* argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    std::printf("%s", kUsage);
    return 0;
  }
  Config config;
  if (Status s = config.ParseArgs(argc - 1, argv + 1); !s.ok()) {
    return FailUsage(s.ToString());
  }
  if (command == "init") return CmdInit(config);
  if (command == "synth") return CmdSynth(config);
  if (command == "ingest-day") return CmdIngestDay(config);
  if (command == "ingest-month") return CmdIngestMonth(config);
  if (command == "query") return CmdQuery(config);
  if (command == "sample") return CmdSample(config);
  if (command == "sync") return CmdSync(config);
  if (command == "stats") return CmdStats(config);
  if (command == "metrics") return CmdMetrics(config);
  if (command == "serve") return CmdServe(config);
  if (command == "top") return CmdTop(config);
  if (command == "profile") return CmdProfile(config);
  return FailUsage("unknown command '" + command + "'");
}

}  // namespace rased
