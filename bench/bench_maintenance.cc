// Section VI-A maintenance cost: the daily tick is dominated by scanning
// the day's UpdateList ("10~20 MB", "up to 30 minutes" at planet scale);
// the index I/O itself is a handful of pages. This bench measures the
// pipeline's pieces — record generation excluded — across UpdateList
// sizes, plus the monthly-rebuild cost, on the production write path:
// cubes built and rolled up as sparse cell lists (DESIGN.md §11.6).

#include "bench_common.h"
#include "index/cube_builder.h"
#include "io/env.h"
#include "synth/update_generator.h"
#include "util/clock.h"

using namespace rased;
using namespace rased::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  auto world = MakeWorld(env);
  RoadTypeTable roads(env.schema.num_road_types);

  PrintHeader("Maintenance: daily tick cost vs UpdateList size",
              "cube build = scan UpdateList into the day's cube; append = "
              "index write + any rollups");
  PrintRow({"records/day", "list MB", "cube build", "append", "total"});

  TempDir scratch("maint");
  int run = 0;
  for (double rate : {1000.0, 5000.0, 20000.0, 50000.0}) {
    SynthOptions synth = env.synth;
    synth.base_updates_per_day = rate;
    synth.growth_per_year = 0.0;
    UpdateGenerator gen(synth, world.get(), &roads);

    TemporalIndexOptions options;
    options.schema = env.schema;
    options.num_levels = 4;
    options.dir = env::JoinPath(scratch.path(), StrFormat("idx-%d", run++));
    options.device = DeviceModel::None();
    auto index = TemporalIndex::Create(options);
    RASED_CHECK(index.ok()) << index.status().ToString();
    CubeBuilder builder(env.schema, world.get());

    double build_ms = 0, append_ms = 0;
    uint64_t records = 0;
    Date start = Date::FromYmd(2020, 1, 1);
    for (int i = 0; i < 7; ++i) {  // one week, includes a weekly rollup
      Date d = start.AddDays(i);
      auto day_records = gen.GenerateDayRecords(d);
      records += day_records.size();
      StopWatch build_watch;
      SparseCube cube = builder.BuildSparseCube(day_records);
      build_ms += build_watch.ElapsedMillis();
      StopWatch append_watch;
      Status s = index.value()->AppendDay(d, cube);
      RASED_CHECK(s.ok()) << s.ToString();
      append_ms += append_watch.ElapsedMillis();
    }
    double per_day = static_cast<double>(records) / 7.0;
    double list_mb = per_day * UpdateRecord::kEncodedBytes / 1048576.0;
    PrintRow({StrFormat("%.0f", per_day), StrFormat("%.2f", list_mb),
              FmtMillis(build_ms / 7), FmtMillis(append_ms / 7),
              FmtMillis((build_ms + append_ms) / 7)});
  }

  // Monthly rebuild cost.
  PrintHeader("Maintenance: monthly rebuild",
              "full-history recrawl replaced by its cube rebuild cost");
  SynthOptions synth = env.synth;
  synth.base_updates_per_day = 5000.0;
  synth.growth_per_year = 0.0;
  UpdateGenerator gen(synth, world.get(), &roads);
  TemporalIndexOptions options;
  options.schema = env.schema;
  options.num_levels = 4;
  options.dir = env::JoinPath(scratch.path(), "idx-monthly");
  options.device = DeviceModel::None();
  auto index = TemporalIndex::Create(options);
  RASED_CHECK(index.ok()) << index.status().ToString();
  CubeBuilder builder(env.schema, world.get());

  Date month = Date::FromYmd(2020, 1, 1);
  std::vector<SparseCube> cubes;
  for (Date d = month; d <= month.month_end(); d = d.next()) {
    SparseCube cube = builder.BuildSparseCube(gen.GenerateDayRecords(d));
    Status s = index.value()->AppendDay(d, cube);
    RASED_CHECK(s.ok()) << s.ToString();
    cubes.push_back(std::move(cube));
  }
  index.value()->pager()->ResetStats();
  StopWatch watch;
  Status s = index.value()->RebuildMonth(month, cubes);
  RASED_CHECK(s.ok()) << s.ToString();
  std::printf("rebuild of one month: %s, %llu page writes\n",
              FmtMillis(watch.ElapsedMillis()).c_str(),
              static_cast<unsigned long long>(
                  index.value()->pager()->stats().page_writes));
  return 0;
}
