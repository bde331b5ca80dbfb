#include "bench_common.h"

#include <cinttypes>
#include <cstdio>

#include "dashboard/json_writer.h"
#include "io/env.h"
#include "synth/update_generator.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/str_util.h"

namespace rased {
namespace bench {

BenchEnv BenchEnv::FromArgs(int argc, char** argv) {
  BenchEnv env;
  Status s = env.config.ParseArgs(argc, argv);
  if (!s.ok()) {
    RASED_LOG(Error) << "bad arguments: " << s.ToString()
                     << " (expected key=value pairs)";
  }
  env.data_dir = env.config.GetString("bench_dir", "rased_bench_data");
  env.seed = static_cast<uint64_t>(env.config.GetInt("seed", 42));
  env.queries_per_point =
      static_cast<int>(env.config.GetInt("queries_per_point", 20));
  env.device.read_latency_us = env.config.GetInt("device_us", 2000);
  env.device.write_latency_us = env.device.read_latency_us;

  env.synth.seed = env.seed;
  env.synth.period = env.period;
  env.synth.base_updates_per_day =
      env.config.GetDouble("base_updates_per_day", 40.0);
  return env;
}

std::unique_ptr<WorldMap> MakeWorld(const BenchEnv& env) {
  auto world = std::make_unique<WorldMap>(env.schema.num_countries);
  ActivityModel model(env.synth, world.get(), env.schema.num_road_types);
  model.InitRoadNetworkSizes(world.get());
  return world;
}

void UseFreshQuickDir(BenchEnv* env) {
  env->data_dir = env::JoinPath(env->data_dir, "quick");
  // NOLINT-RASED(status-discard): a first run has nothing to remove
  (void)env::RemoveAll(env->data_dir);
}

std::unique_ptr<TemporalIndex> OpenOrBuildIndex(const BenchEnv& env,
                                                int num_levels) {
  TemporalIndexOptions options;
  options.schema = env.schema;
  options.num_levels = num_levels;
  options.dir = env::JoinPath(env.data_dir,
                              StrFormat("index_L%d", num_levels));
  options.device = env.device;

  if (env::FileExists(env::JoinPath(options.dir, "catalog"))) {
    auto index = TemporalIndex::Open(options);
    RASED_CHECK(index.ok()) << index.status().ToString();
    return std::move(index).value();
  }

  std::fprintf(stderr,
               "[bench] building %d-level index for %s in %s "
               "(one-time, cached for later runs)...\n",
               num_levels, env.period.ToString().c_str(),
               options.dir.c_str());
  StopWatch watch;
  auto index = TemporalIndex::Create(options);
  RASED_CHECK(index.ok()) << index.status().ToString();

  auto world = MakeWorld(env);
  CubeSynthesizer synth(env.synth, world.get(), env.schema);
  for (Date d = env.period.first; d <= env.period.last; d = d.next()) {
    Status s = index.value()->AppendDay(d, synth.DayCube(d));
    RASED_CHECK(s.ok()) << s.ToString();
  }
  Status s = index.value()->Sync();
  RASED_CHECK(s.ok()) << s.ToString();
  index.value()->pager()->ResetStats();
  std::fprintf(stderr, "[bench] built in %.1f s (%" PRIu64 " cubes)\n",
               watch.ElapsedSeconds(),
               index.value()->StorageStats().total_cubes);
  return std::move(index).value();
}

std::unique_ptr<BaselineDbms> OpenOrBuildDbms(const BenchEnv& env,
                                              uint64_t* num_records) {
  DbmsOptions options;
  options.dir = env::JoinPath(env.data_dir, "dbms");
  options.device = env.device;
  // Figure 10 matches the PostgreSQL buffer size to RASED's cache. The
  // RASED side runs a BytesForCubes(512, schema) byte budget — at bench
  // scale 512 dense images + headers ~= 24 MiB — so the baseline gets the
  // same 24 MiB of shared buffers — and, as in the paper's deployment,
  // the heap is much larger than the buffer pool.
  options.buffer_pool_bytes = static_cast<uint64_t>(
      env.config.GetInt("dbms_pool_bytes", 24 << 20));

  if (env::FileExists(env::JoinPath(options.dir, "heap.pages"))) {
    auto dbms = BaselineDbms::Open(options);
    RASED_CHECK(dbms.ok()) << dbms.status().ToString();
    if (num_records != nullptr) *num_records = dbms.value()->num_records();
    return std::move(dbms).value();
  }

  std::fprintf(stderr,
               "[bench] loading baseline DBMS heap in %s (one-time)...\n",
               options.dir.c_str());
  StopWatch watch;
  auto dbms = BaselineDbms::Create(options);
  RASED_CHECK(dbms.ok()) << dbms.status().ToString();

  auto world = MakeWorld(env);
  RoadTypeTable roads(env.schema.num_road_types);
  UpdateGenerator gen(env.synth, world.get(), &roads);
  uint64_t total = 0;
  for (Date d = env.period.first; d <= env.period.last; d = d.next()) {
    auto records = gen.GenerateDayRecords(d);
    total += records.size();
    Status s = dbms.value()->Append(records);
    RASED_CHECK(s.ok()) << s.ToString();
  }
  Status s = dbms.value()->Sync();
  RASED_CHECK(s.ok()) << s.ToString();
  dbms.value()->pager()->ResetStats();
  std::fprintf(stderr,
               "[bench] loaded %" PRIu64 " rows (%" PRIu64
               " pages) in %.1f s\n",
               total, dbms.value()->num_pages(), watch.ElapsedSeconds());
  if (num_records != nullptr) *num_records = total;
  return std::move(dbms).value();
}

AnalysisQuery RandomCellQuery(const BenchEnv& env, const WorldMap& world,
                              Rng& rng, int span_days) {
  AnalysisQuery q;
  // One value per dimension — the paper's "each query retrieves only one
  // data cube cell" default, isolating retrieval cost.
  const auto& countries = world.country_ids();
  q.countries = {countries[rng.Uniform(countries.size())]};
  q.element_types = {static_cast<ElementType>(rng.Uniform(3))};
  q.road_types = {static_cast<RoadTypeId>(rng.Uniform(env.schema.num_road_types))};
  q.update_types = {static_cast<UpdateType>(rng.Uniform(4))};

  // Window of span_days ending uniformly within the last year (recent
  // windows are what the recency cache is built for).
  Date last = env.period.last.AddDays(-static_cast<int>(rng.Uniform(365)));
  Date first = last.AddDays(-(span_days - 1));
  if (first < env.period.first) first = env.period.first;
  q.range = DateRange(first, last);
  return q;
}

QueryLoadResult RunQueryLoad(QueryExecutor* executor, const BenchEnv& env,
                             const WorldMap& world, Rng& rng, int n,
                             int span_days) {
  QueryLoadResult out;
  int64_t total_micros = 0;
  uint64_t total_reads = 0, total_cubes = 0, total_hits = 0;
  for (int i = 0; i < n; ++i) {
    AnalysisQuery q = RandomCellQuery(env, world, rng, span_days);
    auto result = executor->Execute(q);
    RASED_CHECK(result.ok()) << result.status().ToString();
    total_micros += result.value().stats.total_micros();
    total_reads += result.value().stats.io.page_reads;
    total_cubes += result.value().stats.cubes_total;
    total_hits += result.value().stats.cubes_from_cache;
  }
  out.mean_millis = static_cast<double>(total_micros) / n / 1000.0;
  out.mean_page_reads = static_cast<double>(total_reads) / n;
  out.mean_cubes = static_cast<double>(total_cubes) / n;
  out.mean_cache_hits = static_cast<double>(total_hits) / n;
  return out;
}

void PrintHeader(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (const std::string& cell : cells) {
    std::printf("%16s", cell.c_str());
  }
  std::printf("\n");
}

void PrintJsonLine(const std::string& bench,
                   const std::vector<std::pair<std::string, double>>& fields) {
  JsonWriter w;
  w.BeginObject();
  w.KV("bench", std::string_view(bench));
  for (const auto& [key, value] : fields) w.KV(std::string_view(key), value);
  w.EndObject();
  std::printf("%s\n", std::move(w).Finish().c_str());
}

std::string FmtMillis(double ms) {
  if (ms >= 1000.0) return StrFormat("%.2f s", ms / 1000.0);
  return StrFormat("%.3f ms", ms);
}

std::string FmtCount(double v) { return StrFormat("%.1f", v); }

}  // namespace bench
}  // namespace rased
