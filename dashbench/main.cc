// dashbench: the repository benchmark. Serves a seeded RASED instance
// through the real DashboardService over loopback HTTP and measures what a
// dashboard user sees (--trace 0), or replays the same requests serially
// through each layer's public functions and reports per-layer figures
// (--trace 1). See README.md for the workloads and metrics.
//
// Usage:
//   dashbench --workload NAME --fixture-only [--data DIR]
//   dashbench --workload NAME --seed N --seconds S --trace 0|1 [--data DIR]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dashboard/dashboard_service.h"
#include "fixture.h"
#include "helpers.h"
#include "io/env.h"
#include "loadgen.h"
#include "oracle.h"
#include "synth/update_generator.h"
#include "traced.h"
#include "util/clock.h"
#include "workload.h"

namespace dashbench {
namespace {

using rased::Date;
using rased::NowMicros;

// Templates per run; the stream cycles through them.
constexpr size_t kTemplates = 4096;
// A run whose load generator picked requests up later than this after they
// fell due (p99) is flagged on stderr. It still reports: latencies are timed
// from the scheduled send, so they already carry the generator's lag.
constexpr double kMaxLateMs = 50.0;
// Setups per run; setup_s is their median.
constexpr int kSetups = 5;
// Reads under ingest stop when the writer is done, or after this long.
constexpr double kMaxIngestSeconds = 90;
// Requests replayed by the traced run, and ingest days it applies (two
// month ends).
constexpr size_t kTracedRequests = 160;
constexpr int kTracedIngestDays = 59;

struct Args {
  std::string workload;
  std::string data = ".bench_build/data";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool fixture_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--fixture-only") {
      args->fixture_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--data") {
      args->data = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// A served instance: Rased plus the DashboardService, with `rased serve`'s
// defaults (recency cache warmed, 8 HTTP workers, selfstats sampler and
// profiler on).
struct Served {
  std::unique_ptr<rased::Rased> rased;
  std::unique_ptr<rased::DashboardService> service;
  double setup_s = 0;
  double warm_s = 0;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    if (service != nullptr) service->Stop();
    service.reset();
    rased.reset();
  }
  int port() const { return service->port(); }
};

uint64_t CacheBytes(const WorkloadSpec& spec, const std::string& fixture_dir) {
  if (spec.cache_share <= 0) return 0;
  double index_bytes = static_cast<double>(
      TreeBytes(rased::env::JoinPath(fixture_dir, "index")));
  return static_cast<uint64_t>(index_bytes * spec.cache_share);
}

// Opens, warms and serves `dir`; setup time runs until /readyz says 200.
// `registry` outlives every instance served in the process: the
// process-wide profiler keeps the gauge handles of the first registry it
// reported into, so a registry must not die while the process runs.
rased::Result<std::unique_ptr<Served>> Serve(const std::string& dir,
                                             const WorkloadSpec& spec,
                                             uint64_t cache_bytes,
                                             rased::MetricsRegistry* registry) {
  auto served = std::make_unique<Served>();
  const int64_t start = NowMicros();
  RASED_ASSIGN_OR_RETURN(rased::RasedOptions options,
                         InstanceOptions(dir, cache_bytes, spec.device));
  options.metrics = registry;
  RASED_ASSIGN_OR_RETURN(served->rased, rased::Rased::Open(options));
  const int64_t warm_start = NowMicros();
  RASED_RETURN_IF_ERROR(served->rased->WarmCache());
  served->warm_s = static_cast<double>(NowMicros() - warm_start) / 1e6;
  served->service =
      std::make_unique<rased::DashboardService>(served->rased.get());
  RASED_RETURN_IF_ERROR(served->service->Start(0, 8));
  for (;;) {
    std::string body;
    if (HttpGet(served->port(), "/readyz", &body) == 200) break;
    if (NowMicros() - start > 60'000'000) {
      return rased::Status::Internal("/readyz never returned 200");
    }
    usleep(1000);
  }
  served->setup_s = static_cast<double>(NowMicros() - start) / 1e6;
  return served;
}

// The request stream: its templates, and each resolved against the
// fixture's newest day.
struct Stream {
  std::vector<Template> templates;
  std::vector<Request> requests;  // templates resolved at the base day
};

Stream MakeStream(const WorkloadSpec& spec, const rased::WorldMap& world,
                  const rased::RoadTypeTable& road_types, uint64_t seed) {
  Stream s;
  s.templates = MakeTemplates(spec, world, seed, kTemplates);
  for (const Template& t : s.templates) {
    s.requests.push_back(
        Materialize(t, spec.fixture.coverage.last, world, road_types));
  }
  return s;
}

// Records answers for the exact row check at the end of the run: the rows
// hash of every /api/query answer against its request index.
struct AnswerLog {
  std::vector<std::pair<size_t, uint64_t>> rows;  // (request, rows hash)
  uint64_t samples = 0;
  uint64_t failures = 0;
};

// Checks one answer of the fixed stream as it arrives.
bool CheckFixed(const Request& r, size_t index, int status,
                std::string_view body, AnswerLog* log) {
  bool ok = status == 200;
  size_t n = 0;
  if (ok && r.is_sample()) {
    ok = SamplesInside(body, r.box, &n);
    log->samples += n;
  } else if (ok) {
    std::string_view rows = RowsOf(body);
    ok = !rows.empty();
    if (ok) log->rows.emplace_back(index, Fnv1a(rows));
  }
  if (!ok && ++log->failures <= 3) {
    std::fprintf(stderr, "[dashbench] failed answer (status %d, %zu bytes) to %s: %.200s\n",
                 status, body.size(), r.target.c_str(),
                 std::string(body).c_str());
  }
  return ok;
}

// Answers checked against the oracle; returns the number that differ.
uint64_t VerifyRows(const AnswerLog& log, const Stream& stream,
                    const Oracle& oracle) {
  std::unordered_map<size_t, uint64_t> expected;
  uint64_t mismatches = 0;
  for (const auto& [index, hash] : log.rows) {
    auto it = expected.find(index);
    if (it == expected.end()) {
      it = expected
               .emplace(index,
                        Fnv1a(oracle.RowsJson(stream.requests[index].query)))
               .first;
    }
    if (it->second != hash) {
      if (mismatches == 0) {
        std::fprintf(stderr, "[dashbench] row mismatch on %s\n",
                     stream.requests[index].target.c_str());
      }
      ++mismatches;
    }
  }
  return mismatches;
}

// One day the writer applies, generated before the measured phases.
struct Day {
  Date date;
  rased::DayArtifacts artifacts;
  uint64_t records = 0;
  bool month_end = false;
  rased::MonthArtifacts month;  // when month_end
};

std::vector<Day> MakeDays(const WorkloadSpec& spec, rased::WorldMap* world,
                          rased::RoadTypeTable* road_types) {
  rased::UpdateGenerator gen(spec.fixture.synth, world, road_types);
  std::vector<Day> days;
  Date d = spec.fixture.coverage.last.next();
  for (int i = 0; i < spec.ingest_days; ++i, d = d.next()) {
    Day day;
    day.date = d;
    day.records = gen.GenerateDayRecords(d).size();
    day.artifacts = gen.GenerateDayArtifacts(d);
    day.month_end = d.is_month_end();
    if (day.month_end) day.month = gen.GenerateMonthArtifacts(d.month_start());
    days.push_back(std::move(day));
  }
  return days;
}

struct Split {
  std::vector<double> query_ms, sample_ms;
};

Split SplitLatencies(const LoadResult& result, const Stream& stream) {
  Split s;
  for (const OpResult& op : result.ops) {
    const Template& t = stream.templates[op.op % stream.templates.size()];
    (t.panel == Panel::kSample ? s.sample_ms : s.query_ms)
        .push_back(op.latency_ms);
  }
  return s;
}

void Report(const char* what, const std::vector<double>& v, double q) {
  std::fprintf(stderr, "[dashbench] %-14s n=%zu p50=%.3f p%g=%.3f (%zu beyond)\n",
               what, v.size(), Percentile(v, 0.5), q * 100, Percentile(v, q),
               SamplesBeyond(v.size(), q));
}

int RunEndToEnd(const WorkloadSpec& spec, const Args& args,
                const std::string& fixture_dir) {
  const std::string run_dir =
      rased::env::JoinPath(args.data, "run-" + spec.name);
  if (auto s = CopyTree(fixture_dir, run_dir); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  // Inputs are made before the memory baseline: they are the client's.
  rased::WorldMap world(spec.fixture.schema.num_countries);
  rased::RoadTypeTable road_types(spec.fixture.schema.num_road_types);
  const Stream stream = MakeStream(spec, world, road_types, args.seed);
  const std::vector<Day> days = MakeDays(spec, &world, &road_types);
  const uint64_t cache_bytes = CacheBytes(spec, fixture_dir);
  const int conns = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const double rss_base = PeakRssMb();

  rased::MetricsRegistry registry;
  std::vector<double> setups;
  std::unique_ptr<Served> served;
  for (int i = 0; i < kSetups; ++i) {
    served.reset();
    auto s = Serve(run_dir, spec, cache_bytes, &registry);
    if (!s.ok()) {
      std::fprintf(stderr, "setup: %s\n", s.status().ToString().c_str());
      return 1;
    }
    served = std::move(s).value();
    setups.push_back(served->setup_s);
  }
  const int port = served->port();
  uint64_t attempted = 0, failed = 0;
  AnswerLog answers;

  auto fixed_target = [&](uint64_t op) {
    return stream.requests[op % stream.requests.size()].target;
  };
  auto fixed_check = [&](uint64_t op, int status, std::string_view body) {
    size_t index = op % stream.requests.size();
    return CheckFixed(stream.requests[index], index, status, body, &answers);
  };
  // Each phase continues the stream where the previous one stopped.
  uint64_t stream_pos = 0;
  auto shifted = [&](uint64_t base) {
    return std::make_pair(
        TargetFn([&, base](uint64_t op) { return fixed_target(base + op); }),
        CheckFn([&, base](uint64_t op, int st, std::string_view b) {
          return fixed_check(base + op, st, b);
        }));
  };

  const bool read_phase = !spec.reads_under_ingest;
  const double read_s = read_phase ? 0.6 * args.seconds : 0;
  const double peak_s = 0.15 * args.seconds;

  LoadOptions open;
  open.port = port;
  open.max_conns = conns;
  open.rate = spec.rate;

  // Phase A: open-loop reads, nothing else running.
  LoadResult read_result;
  if (read_phase) {
    open.seconds = read_s;
    auto [target, check] = shifted(stream_pos);
    read_result = OpenLoop(open, target, check);
    stream_pos += read_result.ops.size();
  }

  // Phase B: closed loop, one request in flight per connection.
  LoadOptions closed = open;
  closed.seconds = peak_s;
  LoadResult peak_result;
  {
    auto [target, check] = shifted(stream_pos);
    // peak_qps counts completed /api/query requests only.
    closed.counted = [&, base = stream_pos](uint64_t op) {
      return !stream.requests[(base + op) % stream.requests.size()].is_sample();
    };
    peak_result = ClosedLoop(closed, target, check);
    stream_pos += peak_result.ops.size();
  }

  // Phase C: catch-up ingest. The new days' feed files have all arrived
  // when the phase starts (a crawler backlog, as `rased sync` meets after
  // an outage); the writer applies them in order, with the monthly rebuild
  // and a Sync at each month end. A day's freshness runs from the arrival
  // to its publication, so it sums the cost of every day and month end
  // ahead of it. On ingest-live reads keep arriving until the writer is
  // done; elsewhere the writer runs alone.
  std::atomic<int32_t> published{spec.fixture.coverage.last.days_since_epoch()};
  std::atomic<bool> writer_done{false};
  std::vector<double> freshness_ms;
  uint64_t ingest_attempted = 0, ingest_failed = 0;
  LoadResult ingest_result;
  double ingest_s = 0;
  {
    rased::Rased* rased = served->rased.get();
    const int64_t arrival = NowMicros();
    std::thread writer([&] {
      // Writer time by step (days, monthly rebuilds, syncs), for stderr.
      int64_t step_us[3] = {0, 0, 0};
      auto step = [&](int i, const Day& day, auto&& call) {
        const int64_t t = NowMicros();
        rased::Status s = call();
        step_us[i] += NowMicros() - t;
        ++ingest_attempted;
        if (!s.ok()) {
          ++ingest_failed;
          std::fprintf(stderr, "ingest %s: %s\n", day.date.ToString().c_str(),
                       s.ToString().c_str());
        }
        return s.ok();
      };
      for (const Day& day : days) {
        bool ok = step(0, day, [&] {
          return rased->IngestDailyArtifacts(day.date, day.artifacts.osc_xml,
                                             day.artifacts.changesets_xml);
        });
        freshness_ms.push_back(
            ok ? static_cast<double>(NowMicros() - arrival) / 1000.0 : kFailed);
        published.store(day.date.days_since_epoch());
        if (!day.month_end) continue;
        step(1, day, [&] {
          return rased->ApplyMonthlyArtifacts(day.date.month_start(),
                                              day.month.history_xml,
                                              day.month.changesets_xml);
        });
        step(2, day, [&] { return rased->Sync(); });
      }
      writer_done.store(true);
      timespec cpu{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu);
      std::fprintf(stderr,
                   "[dashbench] writer: days %.3f s, monthly rebuilds %.3f s, "
                   "syncs %.3f s, thread cpu %.3f s\n",
                   static_cast<double>(step_us[0]) / 1e6,
                   static_cast<double>(step_us[1]) / 1e6,
                   static_cast<double>(step_us[2]) / 1e6,
                   static_cast<double>(cpu.tv_sec) + cpu.tv_nsec / 1e9);
    });
    if (spec.reads_under_ingest) {
      open.seconds = kMaxIngestSeconds;
      open.stop = &writer_done;
      // Reads follow the newest published day; their answers move with
      // ingest, so they are checked for shape, not rows.
      TargetFn target = [&](uint64_t op) {
        const Template& t = stream.templates[(stream_pos + op) % kTemplates];
        return Materialize(t, Date::FromDays(published.load()),
                           rased->world(), *rased->road_types())
            .target;
      };
      CheckFn check = [&](uint64_t op, int status, std::string_view body) {
        const Template& t = stream.templates[(stream_pos + op) % kTemplates];
        if (status != 200) return false;
        if (t.panel != Panel::kSample) return !RowsOf(body).empty();
        size_t n = 0;
        return SamplesInside(body, t.box, &n);
      };
      ingest_result = OpenLoop(open, target, check);
    }
    writer.join();
    ingest_s = static_cast<double>(NowMicros() - arrival) / 1e6;
  }
  // Reads during ingest index the stream from where phase B stopped.
  for (OpResult& op : ingest_result.ops) op.op += stream_pos;

  // The final full-coverage total must count every generated update.
  const Date last = days.empty() ? spec.fixture.coverage.last : days.back().date;
  std::string total_body;
  int total_status = HttpGet(
      port, "/api/query?from=" + spec.fixture.coverage.first.ToString() +
                "&to=" + last.ToString(),
      &total_body);
  uint64_t served_total = 0;
  if (std::string_view rows = RowsOf(total_body); !rows.empty()) {
    size_t pos = rows.find("\"count\":");
    if (pos != std::string_view::npos) {
      served_total = std::strtoull(std::string(rows.substr(pos + 8)).c_str(),
                                   nullptr, 10);
    }
  }
  const double rss_mb = PeakRssMb() - rss_base;

  served->service->Stop();
  if (auto s = served->rased->Sync(); !s.ok()) ++ingest_failed;
  const double disk_mb = static_cast<double>(TreeBytes(run_dir)) / 1e6;

  // Row oracle over the fixture's days (untouched by the new days).
  auto oracle = Oracle::Load(*served->rased, spec.fixture.coverage);
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle: %s\n", oracle.status().ToString().c_str());
    return 1;
  }
  const uint64_t mismatches = VerifyRows(answers, stream, oracle.value());
  uint64_t expected_total = oracle.value().Total(spec.fixture.coverage);
  for (const Day& day : days) expected_total += day.records;
  const bool total_ok = total_status == 200 && served_total == expected_total;
  if (!total_ok) {
    std::fprintf(stderr,
                 "[dashbench] full-coverage total %" PRIu64 " != generated %" PRIu64
                 "\n", served_total, expected_total);
  }
  served.reset();

  for (const LoadResult* r : {&read_result, &peak_result, &ingest_result}) {
    attempted += r->ops.size();
    failed += r->failed;
  }
  attempted += 1 + ingest_attempted;
  failed += (total_ok ? 0 : 1) + ingest_failed + mismatches;
  if (failed > 0) {
    std::fprintf(stderr,
                 "[dashbench] failed: read %" PRIu64 ", peak %" PRIu64
                 ", ingest-phase reads %" PRIu64 ", ingest calls %" PRIu64
                 ", total %d, rows %" PRIu64 "\n",
                 read_result.failed, peak_result.failed, ingest_result.failed,
                 ingest_failed, total_ok ? 0 : 1, mismatches);
  }

  const LoadResult& reads = read_phase ? read_result : ingest_result;
  Split lat = SplitLatencies(reads, stream);
  std::vector<double> late = read_result.late_ms;
  late.insert(late.end(), ingest_result.late_ms.begin(),
              ingest_result.late_ms.end());
  const double late_p99 = Percentile(late, 0.99);
  Report("query_ms", lat.query_ms, 0.95);
  Report("sample_ms", lat.sample_ms, 0.95);
  Report("freshness_ms", freshness_ms, 0.90);
  std::string setup_list;
  for (double s : setups) {
    setup_list += (setup_list.empty() ? "" : ",") + std::to_string(s);
  }
  std::fprintf(stderr,
               "[dashbench] peak_qps=%.1f setup_s=%s "
               "client.late_ms_p99=%.3f answers=%zu samples=%" PRIu64
               " ingest_s=%.2f\n",
               peak_result.completed_per_s, setup_list.c_str(), late_p99,
               answers.rows.size(), answers.samples, ingest_s);
  if (late_p99 > kMaxLateMs) {
    std::fprintf(stderr,
                 "[dashbench] invalid timing: the load generator fell %.1f ms "
                 "behind its schedule (p99, limit %.1f ms); this run's "
                 "latencies include that lag\n", late_p99, kMaxLateMs);
  }

  std::map<std::string, Metric> metrics;
  metrics["query_p50_ms"] = {Percentile(lat.query_ms, 0.5), "ms"};
  metrics["query_p95_ms"] = {Percentile(lat.query_ms, 0.95), "ms"};
  metrics["sample_p50_ms"] = {Percentile(lat.sample_ms, 0.5), "ms"};
  metrics["peak_qps"] = {peak_result.completed_per_s, "1/s"};
  metrics["freshness_p50_ms"] = {Percentile(freshness_ms, 0.5), "ms"};
  metrics["freshness_p90_ms"] = {Percentile(freshness_ms, 0.90), "ms"};
  metrics["setup_s"] = {Percentile(setups, 0.5), "s"};
  metrics["rss_mb"] = {rss_mb, "MB"};
  metrics["disk_mb"] = {disk_mb, "MB"};
  std::printf("%s\n", ResultLine(failed == 0, attempted, failed, metrics).c_str());
  return failed == 0 ? 0 : 4;
}

int RunTraced(const WorkloadSpec& spec, const Args& args,
              const std::string& fixture_dir) {
  const std::string run_dir =
      rased::env::JoinPath(args.data, "run-" + spec.name);
  const std::string ingest_dir =
      rased::env::JoinPath(args.data, "run-" + spec.name + "-ingest");
  if (!CopyTree(fixture_dir, run_dir).ok() ||
      !CopyTree(fixture_dir, ingest_dir).ok()) {
    return 1;
  }
  rased::WorldMap world(spec.fixture.schema.num_countries);
  rased::RoadTypeTable road_types(spec.fixture.schema.num_road_types);
  Stream stream = MakeStream(spec, world, road_types, args.seed);
  stream.templates.resize(kTracedRequests);
  stream.requests.resize(kTracedRequests);
  const uint64_t cache_bytes = CacheBytes(spec, fixture_dir);
  rased::MetricsRegistry registry;
  auto served_or = Serve(run_dir, spec, cache_bytes, &registry);
  if (!served_or.ok()) {
    std::fprintf(stderr, "setup: %s\n", served_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Served> served = std::move(served_or).value();
  const int port = served->port();
  uint64_t attempted = 0, failed = 0;

  // The end-to-end pass over the same list: each request once, open loop,
  // bracketed by /metrics scrapes.
  std::string before, after;
  if (HttpGet(port, "/metrics", &before) != 200) return 1;
  AnswerLog answers;
  LoadOptions open;
  open.port = port;
  open.max_conns = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  open.rate = spec.rate;
  open.seconds = static_cast<double>(kTracedRequests) / spec.rate;
  LoadResult pass = OpenLoop(
      open, [&](uint64_t op) { return stream.requests[op].target; },
      [&](uint64_t op, int status, std::string_view body) {
        return CheckFixed(stream.requests[op], op, status, body, &answers);
      });
  if (HttpGet(port, "/metrics", &after) != 200) return 1;
  attempted += pass.ops.size();
  failed += pass.failed;
  auto delta = [&](const char* name, std::vector<std::string> labels = {}) {
    return PromValue(after, name, labels) - PromValue(before, name, labels);
  };
  const std::vector<std::string> index_file = {"file=\"index\""};
  const double http_queries = delta("rased_queries_total");
  const double http_cubes = delta("rased_query_cubes_scanned_total");
  const double http_page_reads = delta("rased_pager_page_reads_total", index_file);
  const double http_read_ops = delta("rased_pager_read_ops_total", index_file);
  const double http_alloc_ops = delta("rased_query_alloc_ops_total");
  const double hits = delta("rased_cache_hits_total");
  const double misses = delta("rased_cache_misses_total");
  const std::vector<std::string> query_endpoint = {"endpoint=\"/api/query\""};
  const double handler_mean =
      delta("rased_http_request_micros_sum", query_endpoint) /
      delta("rased_http_request_micros_count", query_endpoint);
  std::map<double, double> handler = PromBuckets(
      after, "rased_http_request_micros", {"endpoint=\"/api/query\""});
  for (auto& [bound, count] : handler) {
    count -= PromBuckets(before, "rased_http_request_micros",
                         {"endpoint=\"/api/query\""})[bound];
  }
  Split client = SplitLatencies(pass, stream);
  served->service->Stop();

  // Serial replays of the same list, untraced (the overhead baseline) and
  // traced in ABBA order so warm-up favours neither; spans and counts come
  // from the first traced pass.
  SpanLog log, again, quiet;
  quiet.on = false;
  int64_t untraced_us = 0, traced_us = 0;
  bool replay_ok = true;
  for (SpanLog* pass : {&quiet, &log, &again, &quiet}) {
    const int64_t t = NowMicros();
    replay_ok &= ReplayReads(*served->rased, *served->service, stream.requests, pass);
    (pass->on ? traced_us : untraced_us) += NowMicros() - t;
  }
  attempted += 1;
  if (!replay_ok) {
    ++failed;
    std::fprintf(stderr, "[dashbench] serial replay failed\n");
  }

  // Deterministic counts: the replay's QueryStats must equal the served
  // pass's /metrics deltas for the same request list.
  struct CrossCheck {
    const char* name;
    double replay, http;
  };
  const double queries = log.counts["queries"];
  const CrossCheck checks[] = {
      {"queries", queries, http_queries},
      {"query.cubes_per_query", log.counts["cubes"], http_cubes},
      {"io.page_reads_per_query", log.counts["page_reads"], http_page_reads},
      {"io.read_ops_per_query", log.counts["read_ops"], http_read_ops},
      {"query.alloc_ops_per_query", log.counts["alloc_ops"], http_alloc_ops},
  };
  for (const CrossCheck& c : checks) {
    attempted += 1;
    if (c.replay != c.http) {
      ++failed;
      std::fprintf(stderr, "[dashbench] counter cross-check %s: replay %.0f "
                   "!= served %.0f\n", c.name, c.replay, c.http);
    }
  }

  auto oracle = Oracle::Load(*served->rased, spec.fixture.coverage);
  if (!oracle.ok()) return 1;
  failed += VerifyRows(answers, stream, oracle.value());
  const double resident_cubes = PromValue(after, "rased_cache_resident_cubes");
  const double charged_mb = PromValue(after, "rased_cache_resident_bytes") / 1e6;
  const double evictions = PromValue(after, "rased_cache_evictions_total");
  const double warm_s = served->warm_s;

  // The core ingest calls, on the served copy now that its reads are done.
  SpanLog core;
  attempted += 1;
  if (!IngestThroughCore(served->rased.get(), spec.fixture, kTracedIngestDays,
                         &core)) {
    ++failed;
    std::fprintf(stderr, "[dashbench] core ingest failed\n");
  }
  served.reset();

  // The same days through the layers on a second fixture copy.
  SpanLog ingest;
  {
    auto options = InstanceOptions(ingest_dir, cache_bytes, spec.device);
    if (!options.ok()) return 1;
    auto rased = rased::Rased::Open(options.value());
    if (!rased.ok() || !rased.value()->WarmCache().ok()) return 1;
    attempted += 1;
    if (!ReplayIngest(rased.value().get(), spec.fixture, kTracedIngestDays,
                      &ingest)) {
      ++failed;
      std::fprintf(stderr, "[dashbench] ingest replay failed\n");
    }
  }

  auto p = [](SpanLog& l, const char* name, double q) {
    return Percentile(l.us[name], q);
  };
  auto per = [](double total, double n) { return n > 0 ? total / n : 0.0; };
  const double n_cubes = log.counts["probes"];
  const double n_days = ingest.counts["days"];
  const double handler_p50 = BucketPercentile(handler, 0.5);
  std::map<std::string, Metric> m;
  m["dashboard.handler_us_p50"] = {handler_p50, "us"};
  m["dashboard.handler_us_p99"] = {BucketPercentile(handler, 0.99), "us"};
  // Exact means (histogram _sum/_count): accept, queue and socket time.
  double client_mean = 0;
  for (double ms : client.query_ms) client_mean += ms * 1000;
  client_mean /= std::max<size_t>(1, client.query_ms.size());
  m["dashboard.outside_handler_us_mean"] = {client_mean - handler_mean, "us"};
  m["dashboard.parse_us_p50"] = {p(log, "dashboard.parse", 0.5), "us"};
  m["dashboard.render_us_p50"] = {p(log, "dashboard.render", 0.5), "us"};
  m["dashboard.render_us_p99"] = {p(log, "dashboard.render", 0.99), "us"};
  m["dashboard.response_kb_mean"] = {
      per(log.counts["response_bytes"], queries) / 1e3, "kB"};
  m["query.plan_us_p50"] = {p(log, "query.plan", 0.5), "us"};
  m["query.execute_us_p50"] = {p(log, "query.execute", 0.5), "us"};
  m["query.execute_us_p99"] = {p(log, "query.execute", 0.99), "us"};
  m["query.aggregate_us_p50"] = {p(log, "query.aggregate", 0.5), "us"};
  m["query.cubes_per_query"] = {per(log.counts["cubes"], queries), "count"};
  m["query.rollup_frac"] = {per(log.counts["rollup_cubes"], log.counts["cubes"]), "ratio"};
  m["query.alloc_ops_per_query"] = {per(log.counts["alloc_ops"], queries), "count"};
  m["cube.sum_dense_us_per_cube"] = {
      per(Sum(log.us["cube.sum_dense"]), n_cubes), "us"};
  m["cube.accumulate_encoded_us_per_cube"] = {
      per(Sum(log.us["cube.accumulate_encoded"]), n_cubes), "us"};
  m["cube.encoded_bytes_per_cube"] = {per(log.counts["encoded_bytes"], n_cubes), "bytes"};
  m["cube.sparse_frac"] = {per(log.counts["sparse_cubes"], n_cubes), "ratio"};
  m["cache.hit_ratio"] = {per(hits, hits + misses), "ratio"};
  m["cache.probe_us_p50"] = {p(log, "cache.probe", 0.5), "us"};
  m["cache.warm_s"] = {warm_s, "s"};
  m["cache.resident_cubes"] = {resident_cubes, "count"};
  m["cache.charged_mb"] = {charged_mb, "MB"};
  m["cache.evictions"] = {evictions, "count"};
  m["index.read_cubes_us_p50"] = {p(log, "index.read_cubes", 0.5), "us"};
  m["index.read_cubes_us_p99"] = {p(log, "index.read_cubes", 0.99), "us"};
  m["index.append_day_ms_p50"] = {p(ingest, "index.append_day", 0.5) / 1e3, "ms"};
  m["index.rebuild_month_ms_p50"] = {p(ingest, "index.rebuild_month", 0.5) / 1e3, "ms"};
  m["index.publications_per_day"] = {per(ingest.counts["publications"], n_days), "count"};
  m["io.page_reads_per_query"] = {per(log.counts["page_reads"], queries), "count"};
  m["io.read_ops_per_query"] = {per(log.counts["read_ops"], queries), "count"};
  m["io.bytes_read_per_query"] = {per(log.counts["bytes_read"], queries), "bytes"};
  m["io.device_us_per_query"] = {per(log.counts["plan_device_us"], queries), "us"};
  m["io.bytes_written_per_day"] = {per(ingest.counts["bytes_written"], n_days), "bytes"};
  m["collect.crawl_ms_per_day"] = {per(Sum(ingest.us["collect.crawl"]), n_days) / 1e3, "ms"};
  m["collect.records_per_day"] = {per(ingest.counts["records"], n_days), "count"};
  m["core.ingest_day_ms_p99"] = {p(core, "core.ingest_day", 0.99) / 1e3, "ms"};
  m["core.apply_month_ms_p50"] = {p(core, "core.apply_month", 0.5) / 1e3, "ms"};
  m["warehouse.sample_us_p50"] = {p(log, "warehouse.sample", 0.5), "us"};
  m["warehouse.append_us_per_day"] = {
      per(Sum(ingest.us["warehouse.append"]), n_days), "us"};
  m["obs.trace_overhead_frac"] = {
      static_cast<double>(traced_us) / static_cast<double>(untraced_us) - 1.0,
      "ratio"};
  m["client.late_ms_p99"] = {Percentile(pass.late_ms, 0.99), "ms"};
  std::printf("%s\n", ResultLine(failed == 0, attempted, failed, m).c_str());
  return failed == 0 ? 0 : 4;
}

}  // namespace
}  // namespace dashbench

int main(int argc, char** argv) {
  using namespace dashbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dashbench --workload NAME (--fixture-only | --seed N "
                 "--seconds S --trace 0|1) [--data DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string fixtures = rased::env::JoinPath(args.data, "fixtures");
  if (args.fixture_only) {
    auto dir = EnsureFixture(fixtures, spec->fixture);
    if (!dir.ok()) {
      std::fprintf(stderr, "fixture: %s\n", dir.status().ToString().c_str());
      return 1;
    }
    return 0;
  }
  auto dir = LocateFixture(fixtures, spec->fixture);
  if (!dir.ok()) {
    std::fprintf(stderr, "%s (run with --fixture-only first)\n",
                 dir.status().ToString().c_str());
    return 1;
  }
  return args.trace ? RunTraced(*spec, args, dir.value())
                    : RunEndToEnd(*spec, args, dir.value());
}
