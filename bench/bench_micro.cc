// Micro-benchmarks (google-benchmark) for RASED's hot primitives:
// cube operations, the encoded-cube fold of each dashboard panel, record
// codec, the crawl path (changeset store, daily diff and monthly history
// crawls at the paper rate), the cache refresh that follows each
// publication, the warehouse's open and daily append, zone lookup, CRC,
// and date arithmetic.

#include <benchmark/benchmark.h>

#include "cache/cube_cache.h"
#include "collect/daily_crawler.h"
#include "collect/monthly_crawler.h"
#include "cube/cube_codec.h"
#include "cube/data_cube.h"
#include "geo/world_map.h"
#include "index/cube_builder.h"
#include "index/temporal_index.h"
#include "io/crc32c.h"
#include "io/env.h"
#include "obs/heap_stats.h"
#include "osm/osc.h"
#include "synth/update_generator.h"
#include "util/clock.h"
#include "util/date.h"
#include "util/logging.h"
#include "util/random.h"
#include "warehouse/warehouse.h"

namespace rased {
namespace {

void BM_CubeAdd(benchmark::State& state) {
  CubeSchema schema = CubeSchema::BenchScale();
  DataCube cube(schema);
  Rng rng(1);
  std::vector<std::array<uint32_t, 4>> coords(1024);
  for (auto& c : coords) {
    c = {static_cast<uint32_t>(rng.Uniform(3)),
         static_cast<uint32_t>(rng.Uniform(schema.num_countries)),
         static_cast<uint32_t>(rng.Uniform(schema.num_road_types)),
         static_cast<uint32_t>(rng.Uniform(4))};
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& c = coords[i++ & 1023];
    cube.Add(c[0], c[1], c[2], c[3]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CubeAdd);

void BM_CubeMerge(benchmark::State& state) {
  CubeSchema schema = CubeSchema::BenchScale();
  DataCube a(schema), b(schema);
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    b.Add(rng.Uniform(3), rng.Uniform(schema.num_countries),
          rng.Uniform(schema.num_road_types), rng.Uniform(4), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Merge(b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(schema.cube_bytes()));
}
BENCHMARK(BM_CubeMerge);

void BM_CubeSliceSum(benchmark::State& state) {
  CubeSchema schema = CubeSchema::BenchScale();
  DataCube cube(schema);
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    cube.Add(rng.Uniform(3), rng.Uniform(schema.num_countries),
             rng.Uniform(schema.num_road_types), rng.Uniform(4), 1);
  }
  CubeSlice slice;
  slice.countries = {5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(cube.SumSlice(slice));
  }
}
BENCHMARK(BM_CubeSliceSum);

// Ninety synthesized paper-rate days (500 updates a day, seed 1, from
// 2020-09-02), the window of the dashboard's series panel, as encoded
// cubes at the paper-scale schema or the bench schema, with the world and
// road types sized to match. Folding them in turn keeps the branch
// predictor from learning the cubes' cells by heart, which a fold of one
// cube, or of a few, repeated lets it do.
struct FoldDays {
  explicit FoldDays(const CubeSchema& schema)
      : schema(schema),
        world(schema.num_countries),
        roads(schema.num_road_types) {
    SynthOptions options;
    options.seed = 1;
    options.base_updates_per_day = 500.0;
    options.period = DateRange(Date::FromYmd(2020, 1, 1),
                               Date::FromYmd(2021, 12, 31));
    UpdateGenerator gen(options, &world, &roads);
    CubeBuilder builder(schema, &world);
    for (int i = 0; i < 90; ++i) {
      SparseCube cube = builder.BuildSparseCube(
          gen.GenerateDayRecords(Date::FromYmd(2020, 9, 2).AddDays(i)));
      cells += cube.nnz();
      cubes.push_back(EncodedCube::Encode(cube));
      RASED_CHECK(cubes.back().encoding() == CubeEncoding::kSparseCoo);
      body_bytes += cubes.back().body_bytes();
    }
  }

  CubeSchema schema;
  WorldMap world;
  RoadTypeTable roads;
  std::vector<EncodedCube> cubes;
  size_t cells = 0, body_bytes = 0;  // over all the cubes
};

// The dashboard's four query panels (dashbench/workload.cc) as the slice
// and GROUP BY each folds a cube through: the 90-day series (no cell
// dimension grouped; the date comes from the cube), the choropleth
// (country), the histogram (road type x update type) and the one-country
// detail (update type). Unfiltered countries range over the default
// partition the executor uses: the unknown bucket plus every country.
enum FoldPanel { kSeries, kChoropleth, kHistogram, kDetail };

// Folds one encoded daily cube per iteration into its panel's
// accumulator, through the SliceLuts a query builds once; reports
// microseconds per cube and nanoseconds per non-zero cell.
void BM_FoldEncoded(benchmark::State& state, FoldPanel panel, bool paper) {
  static FoldDays* paper_days = new FoldDays(CubeSchema::PaperScale());
  static FoldDays* bench_days = new FoldDays(CubeSchema::BenchScale());
  const FoldDays& days = paper ? *paper_days : *bench_days;
  CubeSlice slice;
  GroupBySpec spec;
  if (panel == kDetail) {
    slice.countries = {days.world.country_ids().front()};
    spec.update_type = true;
  } else {
    slice.countries.push_back(kZoneUnknown);
    for (ZoneId id : days.world.country_ids()) slice.countries.push_back(id);
    spec.country = panel == kChoropleth;
    spec.road_type = spec.update_type = panel == kHistogram;
  }
  slice.Normalize();
  const SliceLuts luts(days.schema, slice, spec);
  std::vector<uint64_t> acc(GroupAccumulatorSize(days.schema, spec), 0);
  size_t i = 0;
  const int64_t start = NowMicros();
  for (auto _ : state) {
    const EncodedCube& cube = days.cubes[i++ % days.cubes.size()];
    Status s = AccumulateEncodedSlice(luts, cube.encoding(), cube.body(),
                                      cube.body_bytes(), acc.data());
    benchmark::DoNotOptimize(s);
    benchmark::ClobberMemory();
  }
  const double ns_per_cube = 1e3 * static_cast<double>(NowMicros() - start) /
                             static_cast<double>(state.iterations());
  const double cubes = static_cast<double>(days.cubes.size());
  state.counters["us_per_cube"] = ns_per_cube / 1e3;
  state.counters["ns_per_cell"] =
      ns_per_cube * cubes / static_cast<double>(days.cells);
  state.counters["cells"] = static_cast<double>(days.cells) / cubes;
  state.counters["body_bytes"] = static_cast<double>(days.body_bytes) / cubes;
}

[[maybe_unused]] const bool kFoldEncodedRegistered = [] {
  const std::pair<const char*, FoldPanel> panels[] = {
      {"series", kSeries},
      {"choropleth", kChoropleth},
      {"histogram", kHistogram},
      {"detail", kDetail}};
  for (const auto& [panel_name, panel] : panels) {
    for (bool paper : {true, false}) {
      const std::string name = std::string("BM_FoldEncoded/") + panel_name +
                               (paper ? "/paper" : "/bench");
      benchmark::RegisterBenchmark(name.c_str(), BM_FoldEncoded, panel,
                                   paper)
          ->Unit(benchmark::kMicrosecond);
    }
  }
  return true;
}();

void BM_RecordCodec(benchmark::State& state) {
  UpdateRecord r;
  r.element_type = ElementType::kWay;
  r.date = Date::FromYmd(2021, 6, 15);
  r.country = 42;
  r.lat = 44.9;
  r.lon = -93.2;
  r.road_type = 8;
  r.update_type = UpdateType::kGeometry;
  r.changeset_id = 123456789;
  unsigned char buf[UpdateRecord::kEncodedBytes];
  for (auto _ : state) {
    r.EncodeTo(buf);
    benchmark::DoNotOptimize(UpdateRecord::DecodeFrom(buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordCodec);

// The crawl inputs of the dashbench paper fixture's generator (paper-scale
// world and road types, 500 updates a day, seed 1): the 2020-06-15 day
// and the whole of June 2020.
struct PaperRateInputs {
  PaperRateInputs() : world(305), roads(150) {
    SynthOptions options;
    options.seed = 1;
    options.base_updates_per_day = 500.0;
    options.period = DateRange(Date::FromYmd(2020, 1, 1),
                               Date::FromYmd(2021, 12, 31));
    UpdateGenerator gen(options, &world, &roads);
    day = gen.GenerateDayArtifacts(Date::FromYmd(2020, 6, 15));
    month = gen.GenerateMonthArtifacts(Date::FromYmd(2020, 6, 1));
  }

  static PaperRateInputs& Get() {
    static PaperRateInputs* inputs = new PaperRateInputs();
    return *inputs;
  }

  WorldMap world;
  RoadTypeTable roads;
  DayArtifacts day;
  MonthArtifacts month;
};

// The crawl benchmarks' last argument is the fragment count: 1 is the
// serial crawl, 3 the chunked crawl on a CrawlPool of 3 (the writer and
// two helpers, DESIGN.md §11.7). Times are wall-clock.

// First arg 0: the day's changesets; 1: the month's.
void BM_ChangesetStore(benchmark::State& state) {
  PaperRateInputs& in = PaperRateInputs::Get();
  const std::string& xml =
      state.range(0) == 0 ? in.day.changesets_xml : in.month.changesets_xml;
  CrawlPool pool(static_cast<size_t>(state.range(1)));
  size_t changesets = 0;
  for (auto _ : state) {
    ChangesetStore store;
    Status s = store.AddFromXml(xml, &pool);
    RASED_CHECK(s.ok());
    changesets = store.size();
    benchmark::DoNotOptimize(store);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
  state.counters["changesets"] = static_cast<double>(changesets);
}
BENCHMARK(BM_ChangesetStore)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 3})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_DailyCrawl(benchmark::State& state) {
  PaperRateInputs& in = PaperRateInputs::Get();
  ChangesetStore changesets;
  Status s = changesets.AddFromXml(in.day.changesets_xml);
  RASED_CHECK(s.ok());
  DailyCrawler crawler(&in.world, &in.roads);
  CrawlPool pool(static_cast<size_t>(state.range(0)));
  size_t records = 0;
  for (auto _ : state) {
    std::vector<std::vector<UpdateRecord>> parts;
    Status st = crawler.CrawlDiff(in.day.osc_xml, changesets, &pool, &parts);
    RASED_CHECK(st.ok());
    records = 0;
    for (const auto& part : parts) records += part.size();
    benchmark::DoNotOptimize(parts);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(in.day.osc_xml.size()));
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_DailyCrawl)
    ->Arg(1)
    ->Arg(3)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_MonthlyCrawl(benchmark::State& state) {
  PaperRateInputs& in = PaperRateInputs::Get();
  ChangesetStore changesets;
  Status s = changesets.AddFromXml(in.month.changesets_xml);
  RASED_CHECK(s.ok());
  MonthlyCrawler crawler(&in.world, &in.roads);
  const DateRange june(Date::FromYmd(2020, 6, 1), Date::FromYmd(2020, 6, 30));
  CrawlPool pool(static_cast<size_t>(state.range(0)));
  size_t records = 0;
  for (auto _ : state) {
    std::vector<std::vector<UpdateRecord>> parts;
    Status st = crawler.CrawlHistory(in.month.history_xml, changesets, june,
                                     &pool, &parts);
    RASED_CHECK(st.ok());
    records = 0;
    for (const auto& part : parts) records += part.size();
    benchmark::DoNotOptimize(parts);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(in.month.history_xml.size()));
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_MonthlyCrawl)
    ->Arg(1)
    ->Arg(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The dashbench paper fixture's year (2020, paper-scale schema, 500
// updates a day, seed 1) as a temporary index, built once per process,
// with a recency cache warmed over it whose budget holds exactly that
// year's entries.
struct PaperYearCache {
  PaperYearCache() : world(305), roads(150) {
    TemporalIndexOptions options;
    options.schema = CubeSchema::PaperScale();
    options.dir = env::JoinPath(dir.path(), "index");
    options.device = DeviceModel::None();
    index = std::move(TemporalIndex::Create(options)).value();
    SynthOptions synth;
    synth.seed = 1;
    synth.base_updates_per_day = 500.0;
    synth.period = DateRange(Date::FromYmd(2020, 1, 1),
                             Date::FromYmd(2020, 12, 31));
    UpdateGenerator gen(synth, &world, &roads);
    CubeBuilder builder(options.schema, &world);
    for (Date d = synth.period.first; d <= synth.period.last; d = d.next()) {
      SparseCube cube = builder.BuildSparseCube(gen.GenerateDayRecords(d));
      RASED_CHECK(index->AppendDay(d, cube).ok());
      if (d == Date::FromYmd(2020, 6, 15)) appended_day = std::move(cube);
    }
    next_day = synth.period.last.next();

    CacheOptions cache_options;
    cache_options.byte_budget = 0;
    CatalogSnapshot snapshot = index->Snapshot();
    for (int level = 0; level < kNumLevels; ++level) {
      for (const CubeKey& key :
           snapshot.LatestKeys(static_cast<Level>(level), SIZE_MAX)) {
        cache_options.byte_budget += CubeCache::EntryBytes(
            snapshot.LocOf(key)->blob_bytes - CubeBlobHeader::kBytes);
      }
    }
    cache = std::make_unique<CubeCache>(cache_options);
    RASED_CHECK(cache->Warm(index.get()).ok());
  }

  static PaperYearCache& Get() {
    static PaperYearCache fixture;
    return fixture;
  }

  TempDir dir{"bench-micro-cache"};
  WorldMap world;
  RoadTypeTable roads;
  std::unique_ptr<TemporalIndex> index;
  std::unique_ptr<CubeCache> cache;
  SparseCube appended_day{CubeSchema::PaperScale()};
  Date next_day;
};

// The cache refresh that follows each publication (CubeCache::Warm on a
// warmed cache). Arg 0: nothing new was published, so it selects,
// compares and reads nothing. Arg 1: one day was appended first (a copy
// of 2020-06-15's cube, untimed, with its weekly/monthly rollups when it
// closes one), so the refresh reads the new cubes and drops the oldest
// days that no longer fit.
void BM_CacheRefresh(benchmark::State& state) {
  PaperYearCache& fixture = PaperYearCache::Get();
  const uint64_t read_before = fixture.cache->stats().preloaded;
  for (auto _ : state) {
    if (state.range(0) == 1) {
      RASED_CHECK(
          fixture.index->AppendDay(fixture.next_day, fixture.appended_day)
              .ok());
      fixture.next_day = fixture.next_day.next();
    }
    const int64_t start = NowMicros();
    Status s = fixture.cache->Warm(fixture.index.get());
    const int64_t micros = NowMicros() - start;
    benchmark::DoNotOptimize(s);
    RASED_CHECK(s.ok());
    state.SetIterationTime(static_cast<double>(micros) / 1e6);
  }
  state.counters["blobs_read"] = benchmark::Counter(
      static_cast<double>(fixture.cache->stats().preloaded - read_before),
      benchmark::Counter::kAvgIterations);
  state.counters["resident"] = static_cast<double>(fixture.cache->size());
}
BENCHMARK(BM_CacheRefresh)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(300)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// The dashbench paper fixture's warehouse records (2020, paper-scale world,
// 500 updates a day, seed 1: about 215k records in 8 KiB pages), each day
// kept in memory, and a closed warehouse of the whole year in a temporary
// directory; built once per process.
struct PaperYearWarehouse {
  PaperYearWarehouse() : world(305), roads(150) {
    SynthOptions synth;
    synth.seed = 1;
    synth.base_updates_per_day = 500.0;
    synth.period = DateRange(Date::FromYmd(2020, 1, 1),
                             Date::FromYmd(2020, 12, 31));
    UpdateGenerator gen(synth, &world, &roads);
    for (Date d = synth.period.first; d <= synth.period.last; d = d.next()) {
      days.push_back(gen.GenerateDayRecords(d));
      records += days.back().size();
    }
    options.dir = env::JoinPath(dir.path(), "year");
    options.device = DeviceModel::None();
    auto wh = Warehouse::Create(options);
    RASED_CHECK(wh.ok());
    for (const auto& day : days) RASED_CHECK(wh.value()->Append(day).ok());
  }

  static PaperYearWarehouse& Get() {
    static PaperYearWarehouse fixture;
    return fixture;
  }

  TempDir dir{"bench-micro-warehouse"};
  WorldMap world;
  RoadTypeTable roads;
  std::vector<std::vector<UpdateRecord>> days;
  size_t records = 0;
  WarehouseOptions options;
};

// Warehouse::Open of the paper year: the heap scan that rebuilds the
// changeset and spatial indexes. Only the open is timed (wall clock);
// `alloc_ops` counts its heap allocations.
void BM_WarehouseOpen(benchmark::State& state) {
  PaperYearWarehouse& fixture = PaperYearWarehouse::Get();
  uint64_t alloc_ops = 0;
  for (auto _ : state) {
    const int64_t start = NowMicros();
    ResourceScope scope;
    auto wh = Warehouse::Open(fixture.options);
    alloc_ops += scope.Usage().alloc_ops;
    state.SetIterationTime(static_cast<double>(NowMicros() - start) / 1e6);
    RASED_CHECK(wh.ok());
    RASED_CHECK(wh.value()->num_records() == fixture.records);
  }
  state.counters["alloc_ops"] = benchmark::Counter(
      static_cast<double>(alloc_ops), benchmark::Counter::kAvgIterations);
  state.counters["records"] = static_cast<double>(fixture.records);
}
BENCHMARK(BM_WarehouseOpen)->UseManualTime()->Unit(benchmark::kMillisecond);

// Warehouse::Append of each paper day from July to December in turn (184
// iterations, each with changesets the warehouse has not seen) onto a fresh
// warehouse that holds January to June (about 107k records, appended
// untimed). Wall clock; `alloc_ops` counts heap allocations per day.
constexpr size_t kFirstHalfDays = 182;  // 2020-01-01 .. 2020-06-30

void BM_WarehouseAppendDay(benchmark::State& state) {
  PaperYearWarehouse& fixture = PaperYearWarehouse::Get();
  TempDir dir("bench-micro-append");
  WarehouseOptions options = fixture.options;
  options.dir = dir.path();
  auto wh = Warehouse::Create(options);
  RASED_CHECK(wh.ok());
  for (size_t d = 0; d < kFirstHalfDays; ++d) {
    RASED_CHECK(wh.value()->Append(fixture.days[d]).ok());
  }
  size_t next = kFirstHalfDays;
  uint64_t alloc_ops = 0;
  size_t records = 0;
  for (auto _ : state) {
    RASED_CHECK(next < fixture.days.size());
    const std::vector<UpdateRecord>& day = fixture.days[next++];
    const int64_t start = NowMicros();
    ResourceScope scope;
    Status s = wh.value()->Append(day);
    alloc_ops += scope.Usage().alloc_ops;
    state.SetIterationTime(static_cast<double>(NowMicros() - start) / 1e6);
    RASED_CHECK(s.ok());
    records += day.size();
  }
  state.counters["alloc_ops"] = benchmark::Counter(
      static_cast<double>(alloc_ops), benchmark::Counter::kAvgIterations);
  state.counters["records"] = benchmark::Counter(
      static_cast<double>(records), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WarehouseAppendDay)
    ->Iterations(184)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ZoneLookup(benchmark::State& state) {
  WorldMap world(305);
  Rng rng(4);
  std::vector<LatLon> points(1024);
  for (auto& p : points) {
    p = LatLon{rng.NextDouble() * 180 - 90, rng.NextDouble() * 360 - 180};
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.CountryAt(points[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZoneLookup);

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(8188)->Arg(196608);

// The portable slice-by-8 twin Crc32c falls back to without SSE4.2.
void BM_Crc32cPortable(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32cPortable(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Arg(8188);

void BM_DateRoundTrip(benchmark::State& state) {
  int32_t day = 0;
  for (auto _ : state) {
    Date d = Date::FromDays(10000 + (day++ % 10000));
    benchmark::DoNotOptimize(Date::FromYmd(d.year(), d.month(), d.day()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DateRoundTrip);

}  // namespace
}  // namespace rased

BENCHMARK_MAIN();
