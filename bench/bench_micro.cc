// Micro-benchmarks (google-benchmark) for RASED's hot primitives:
// cube operations, record codec, crawler-facing XML parsing, zone lookup,
// R-tree queries, CRC, and date arithmetic.

#include <benchmark/benchmark.h>

#include "collect/daily_crawler.h"
#include "cube/data_cube.h"
#include "geo/world_map.h"
#include "io/crc32c.h"
#include "osm/osc.h"
#include "synth/update_generator.h"
#include "util/date.h"
#include "util/logging.h"
#include "util/random.h"

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

void BM_DailyCrawl(benchmark::State& state) {
  WorldMap world(64);
  RoadTypeTable roads(32);
  SynthOptions options;
  options.base_updates_per_day = 2000.0;
  options.period = DateRange(Date::FromYmd(2021, 1, 1),
                             Date::FromYmd(2021, 12, 31));
  UpdateGenerator gen(options, &world, &roads);
  DayArtifacts artifacts = gen.GenerateDayArtifacts(Date::FromYmd(2021, 6, 1));
  ChangesetStore changesets;
  Status s = changesets.AddFromXml(artifacts.changesets_xml);
  RASED_CHECK(s.ok());
  DailyCrawler crawler(&world, &roads);
  size_t records = 0;
  for (auto _ : state) {
    std::vector<UpdateRecord> out;
    Status st = crawler.CrawlDiff(artifacts.osc_xml, changesets, &out);
    RASED_CHECK(st.ok());
    records = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(artifacts.osc_xml.size()));
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_DailyCrawl);

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
