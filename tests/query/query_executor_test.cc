#include "query/query_executor.h"

#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "index/cube_builder.h"
#include "io/env.h"
#include "synth/update_generator.h"

namespace rased {
namespace {

// Executor tests run at bench scale (64 zones, 192 KiB cubes) with
// hand-planted records so every expected count is known exactly.
class QueryExecutorTest : public ::testing::Test {
 protected:
  QueryExecutorTest() : schema_(CubeSchema::BenchScale()), world_(64) {}

  void SetUp() override {
    TemporalIndexOptions options;
    options.schema = schema_;
    options.num_levels = 4;
    options.dir = env::JoinPath(dir_.path(), "index");
    options.device = DeviceModel{100, 100, 0.0};
    auto index = TemporalIndex::Create(options);
    ASSERT_TRUE(index.ok());
    index_ = std::move(index).value();

    germany_ = world_.FindByName("Germany").value();
    china_ = world_.FindByName("China").value();
    europe_ = world_.FindByName("Europe").value();
    world_.SetRoadNetworkSize(germany_, 10000);
    world_.SetRoadNetworkSize(china_, 100);

    // Two months of data: each day Germany gets 4 new-way updates on road
    // type 5 and 2 geometry-node updates on road type 0; China gets 1
    // new-way update.
    CubeBuilder builder(schema_, &world_);
    for (Date d = Date::FromYmd(2021, 1, 1); d <= Date::FromYmd(2021, 2, 28);
         d = d.next()) {
      std::vector<UpdateRecord> records;
      for (int i = 0; i < 4; ++i) {
        records.push_back(Record(germany_, d, ElementType::kWay,
                                 UpdateType::kNew, 5));
      }
      for (int i = 0; i < 2; ++i) {
        records.push_back(Record(germany_, d, ElementType::kNode,
                                 UpdateType::kGeometry, 0));
      }
      records.push_back(
          Record(china_, d, ElementType::kWay, UpdateType::kNew, 5));
      ASSERT_TRUE(index_->AppendDay(d, builder.BuildCube(records)).ok());
    }
  }

  UpdateRecord Record(ZoneId country, Date date, ElementType et,
                      UpdateType ut, RoadTypeId rt) {
    UpdateRecord r;
    r.element_type = et;
    r.date = date;
    r.country = country;
    LatLon p = world_.zone(country).bounds.Center();
    r.lat = p.lat;
    r.lon = p.lon;
    r.road_type = rt;
    r.update_type = ut;
    return r;
  }

  CubeSchema schema_;
  WorldMap world_;
  TempDir dir_{"executor-test"};
  std::unique_ptr<TemporalIndex> index_;
  ZoneId germany_ = 0, china_ = 0, europe_ = 0;
};

TEST_F(QueryExecutorTest, TotalCountWithoutGrouping) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  // 7 records/day x 31 days; the default country partition avoids double
  // counting the continent cells.
  EXPECT_EQ(result.value().rows[0].count, 7u * 31);
}

TEST_F(QueryExecutorTest, GroupByCountry) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
  q.group_country = true;
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  std::map<int32_t, uint64_t> by_country;
  for (const ResultRow& row : result.value().rows) {
    by_country[row.country] = row.count;
  }
  EXPECT_EQ(by_country[germany_], 6u * 31);
  EXPECT_EQ(by_country[china_], 1u * 31);
  EXPECT_EQ(by_country.count(europe_), 0u);  // aggregates not in partition
}

TEST_F(QueryExecutorTest, ExplicitContinentFilterWorks) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
  q.countries = {europe_};
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  // Only Germany's updates are in Europe; China's fall in Asia.
  EXPECT_EQ(result.value().rows[0].count, 6u * 31);
}

TEST_F(QueryExecutorTest, FiltersCombine) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 10));
  q.countries = {germany_};
  q.element_types = {ElementType::kWay};
  q.update_types = {UpdateType::kNew};
  q.road_types = {5};
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0].count, 4u * 10);
}

TEST_F(QueryExecutorTest, GroupByElementAndUpdateType) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
  q.countries = {germany_};
  q.group_element_type = true;
  q.group_update_type = true;
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 2u);
  std::map<std::pair<int32_t, int32_t>, uint64_t> cells;
  for (const ResultRow& row : result.value().rows) {
    cells[{row.element_type, row.update_type}] = row.count;
  }
  EXPECT_EQ((cells[{static_cast<int32_t>(ElementType::kWay),
                    static_cast<int32_t>(UpdateType::kNew)}]),
            4u * 31);
  EXPECT_EQ((cells[{static_cast<int32_t>(ElementType::kNode),
                    static_cast<int32_t>(UpdateType::kGeometry)}]),
            2u * 31);
}

TEST_F(QueryExecutorTest, GroupByDateForcesDailyPlan) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
  q.countries = {germany_};
  q.group_date = true;
  QueryPlan plan = executor.PlanFor(q);
  EXPECT_EQ(plan.cubes.size(), 31u);
  for (const CubeKey& key : plan.cubes) {
    EXPECT_EQ(key.level, Level::kDaily);
  }
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 31u);
  for (const ResultRow& row : result.value().rows) {
    EXPECT_TRUE(row.has_date);
    EXPECT_EQ(row.count, 6u);
  }
}

TEST_F(QueryExecutorTest, OptimizedPlanUsesCoarseLevels) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
  QueryPlan plan = executor.PlanFor(q);
  ASSERT_EQ(plan.cubes.size(), 1u);
  EXPECT_EQ(plan.cubes[0].level, Level::kMonthly);

  QueryExecutor flat(index_.get(), nullptr, &world_, PlanMode::kFlat);
  EXPECT_EQ(flat.PlanFor(q).cubes.size(), 31u);
}

TEST_F(QueryExecutorTest, FlatAndOptimizedAgreeOnAnswers) {
  QueryExecutor optimized(index_.get(), nullptr, &world_);
  QueryExecutor flat(index_.get(), nullptr, &world_, PlanMode::kFlat);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 5), Date::FromYmd(2021, 2, 20));
  q.group_country = true;
  q.group_update_type = true;
  auto a = optimized.Execute(q);
  auto b = flat.Execute(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().rows.size(), b.value().rows.size());
  for (size_t i = 0; i < a.value().rows.size(); ++i) {
    EXPECT_EQ(a.value().rows[i].count, b.value().rows[i].count);
    EXPECT_EQ(a.value().rows[i].country, b.value().rows[i].country);
  }
  EXPECT_LT(a.value().stats.cubes_total, b.value().stats.cubes_total);
}

TEST_F(QueryExecutorTest, PercentageUsesRoadNetworkSize) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 1));
  q.countries = {germany_, china_};
  q.group_country = true;
  q.percentage = true;
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 2u);
  for (const ResultRow& row : result.value().rows) {
    if (row.country == germany_) {
      EXPECT_DOUBLE_EQ(row.percentage, 100.0 * 6 / 10000);
    } else {
      EXPECT_DOUBLE_EQ(row.percentage, 100.0 * 1 / 100);
    }
  }
}

TEST_F(QueryExecutorTest, PercentageRequiresCountryGrouping) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.percentage = true;
  EXPECT_TRUE(executor.Execute(q).status().IsInvalidArgument());
}

TEST_F(QueryExecutorTest, CacheHitsAvoidDiskReads) {
  CacheOptions cache_options;
  cache_options.byte_budget = CacheOptions::BytesForCubes(64, schema_);
  cache_options.policy = CachePolicy::kAllDaily;
  CubeCache cache(cache_options);
  ASSERT_TRUE(cache.Warm(index_.get()).ok());
  index_->pager()->ResetStats();

  QueryExecutor executor(index_.get(), &cache, &world_);
  AnalysisQuery q;
  // The last 10 days are certainly within the 64 cached dailies.
  q.range = DateRange(Date::FromYmd(2021, 2, 19), Date::FromYmd(2021, 2, 28));
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.cubes_from_disk, 0u);
  EXPECT_GT(result.value().stats.cubes_from_cache, 0u);
  EXPECT_EQ(result.value().stats.io.page_reads, 0u);
  EXPECT_EQ(result.value().stats.io.simulated_device_micros, 0);
}

TEST_F(QueryExecutorTest, StatsChargeDeviceTimeOnMisses) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.cubes_from_disk, 1u);  // monthly cube
  EXPECT_EQ(result.value().stats.io.page_reads, 1u);
  EXPECT_EQ(result.value().stats.io.simulated_device_micros, 100);
  EXPECT_GE(result.value().stats.total_micros(),
            result.value().stats.cpu_micros);
}

TEST_F(QueryExecutorTest, DuplicateFilterValuesCountOnce) {
  // Regression: IN-lists are sets. Before slices were normalized, naming
  // the same country (or road type / update type) twice double-counted
  // every matching cell.
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery base;
  base.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 10));
  base.countries = {germany_};

  AnalysisQuery duplicated = base;
  duplicated.countries = {germany_, germany_, germany_};
  duplicated.road_types = {5, 0, 5};
  duplicated.update_types = {UpdateType::kNew, UpdateType::kGeometry,
                             UpdateType::kNew};

  auto clean = executor.Execute(base);
  auto dup = executor.Execute(duplicated);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(dup.ok());
  ASSERT_EQ(clean.value().rows.size(), 1u);
  ASSERT_EQ(dup.value().rows.size(), 1u);
  // The duplicated filters select the same records, so counts must match:
  // 6 Germany updates/day (rt 5 + rt 0, kNew + kGeometry) x 10 days.
  EXPECT_EQ(clean.value().rows[0].count, 6u * 10);
  EXPECT_EQ(dup.value().rows[0].count, clean.value().rows[0].count);
}

TEST_F(QueryExecutorTest, BatchedMissesCoalesceAdjacentPages) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  // Grouping by date forces a daily plan: 10 daily cubes, all misses,
  // fetched in one batch whose adjacent pages coalesce.
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 10));
  q.group_date = true;
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  const IoStats& io = result.value().stats.io;
  // Transfer accounting is unchanged by batching...
  EXPECT_EQ(io.page_reads, 10u);
  // ...but the ten pages arrive in fewer device operations (the week-1
  // rollup pages interleave, so not one — but far fewer than ten).
  EXPECT_LT(io.read_ops, io.page_reads);
  EXPECT_LT(io.simulated_device_micros, 10 * 100);
}

TEST_F(QueryExecutorTest, RangeClampedToCoverage) {
  QueryExecutor executor(index_.get(), nullptr, &world_);
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2019, 1, 1), Date::FromYmd(2030, 1, 1));
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0].count, 7u * 59);  // all 59 covered days
}

// The widest date-grouped query at the paper rate: 90 days of the paper
// fixture's generator (paper-scale schema, 500 updates a day) grouped by
// every dimension give about 40,000 rows, and the executor's heap calls
// must not grow with them (a tree node per row made 40,381 here).
TEST(QueryExecutorPaperScaleTest, WideDateGroupingAllocatesPerQueryNotPerRow) {
  TempDir dir("executor-paper");
  const CubeSchema schema = CubeSchema::PaperScale();
  WorldMap world(schema.num_countries);
  RoadTypeTable roads(schema.num_road_types);
  SynthOptions synth;
  synth.seed = 1;
  synth.base_updates_per_day = 500.0;
  synth.period = DateRange(Date::FromYmd(2020, 1, 1),
                           Date::FromYmd(2020, 3, 30));
  TemporalIndexOptions options;
  options.schema = schema;
  options.dir = env::JoinPath(dir.path(), "index");
  options.device = DeviceModel::None();
  auto index = TemporalIndex::Create(options);
  ASSERT_TRUE(index.ok());
  UpdateGenerator gen(synth, &world, &roads);
  CubeBuilder builder(schema, &world);
  for (Date d = synth.period.first; d <= synth.period.last; d = d.next()) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(d, builder.BuildSparseCube(
                                       gen.GenerateDayRecords(d)))
                    .ok());
  }

  QueryExecutor executor(index.value().get(), nullptr, &world);
  AnalysisQuery q;
  q.range = synth.period;
  q.group_date = q.group_element_type = q.group_country = true;
  q.group_road_type = q.group_update_type = true;
  auto result = executor.Execute(q);
  ASSERT_TRUE(result.ok());
  const std::vector<ResultRow>& rows = result.value().rows;
  EXPECT_EQ(result.value().stats.cubes_total, 90u);
  EXPECT_GT(rows.size(), 40000u);
  // Rows in (element_type, date, country, road_type, update_type) order.
  auto key = [](const ResultRow& row) {
    return std::tuple(row.element_type, row.date.days_since_epoch(),
                      row.country, row.road_type, row.update_type);
  };
  for (size_t i = 1; i < rows.size(); ++i) {
    ASSERT_LT(key(rows[i - 1]), key(rows[i])) << i;
  }
  RecordProperty("alloc_ops", static_cast<int>(result.value().stats.alloc_ops));
  EXPECT_LE(result.value().stats.alloc_ops, 400u) << rows.size() << " rows";
}

}  // namespace
}  // namespace rased
