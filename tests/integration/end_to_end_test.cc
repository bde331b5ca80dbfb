#include <map>

#include <gtest/gtest.h>

#include "core/rased.h"
#include "dbms/baseline_dbms.h"
#include "io/env.h"
#include "synth/update_generator.h"
#include "test_helpers.h"

namespace rased {
namespace {

// End-to-end pipeline tests: synthetic planet -> OSM-format files -> daily
// crawl -> cubes -> queries, plus the monthly-rebuild path and the
// RASED-vs-baseline consistency check behind Figure 10.
class EndToEndTest : public ::testing::Test {
 protected:
  TempDir dir_{"e2e-test"};
};

TEST_F(EndToEndTest, DailyArtifactPipelineMatchesRecordPipeline) {
  // Ingesting the XML artifacts must produce the same index contents as
  // ingesting the records directly (for the attributes diffs carry).
  RasedOptions options;
  options.dir = env::JoinPath(dir_.path(), "via-files");
  options.schema = CubeSchema::BenchScale();
  options.enable_warehouse = false;
  auto via_files = Rased::Create(options);
  ASSERT_TRUE(via_files.ok());

  RasedOptions options2 = options;
  options2.dir = env::JoinPath(dir_.path(), "via-records");
  auto via_records = Rased::Create(options2);
  ASSERT_TRUE(via_records.ok());

  SynthOptions synth;
  synth.seed = 33;
  synth.base_updates_per_day = 50.0;
  synth.period = DateRange(Date::FromYmd(2021, 5, 1),
                           Date::FromYmd(2021, 5, 14));
  UpdateGenerator gen(synth, &via_files.value()->world(),
                      via_files.value()->road_types());

  for (Date d = synth.period.first; d <= synth.period.last; d = d.next()) {
    DayArtifacts artifacts = gen.GenerateDayArtifacts(d);
    ASSERT_TRUE(via_files.value()
                    ->IngestDailyArtifacts(d, artifacts.osc_xml,
                                           artifacts.changesets_xml)
                    .ok());
    // The record path needs the provisional classification the daily
    // crawler would produce.
    std::vector<UpdateRecord> records = gen.GenerateDayRecords(d);
    for (UpdateRecord& r : records) {
      if (r.update_type != UpdateType::kNew) r.update_type = kProvisionalUpdate;
    }
    ASSERT_TRUE(via_records.value()->IngestDayRecords(d, records).ok());
  }

  // Compare: per-country per-element counts must agree.
  AnalysisQuery q;
  q.range = synth.period;
  q.group_country = true;
  q.group_element_type = true;
  q.group_update_type = true;
  auto a = via_files.value()->Query(q);
  auto b = via_records.value()->Query(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().rows.size(), b.value().rows.size());
  for (size_t i = 0; i < a.value().rows.size(); ++i) {
    EXPECT_EQ(a.value().rows[i].count, b.value().rows[i].count) << i;
    EXPECT_EQ(a.value().rows[i].country, b.value().rows[i].country);
  }
}

TEST_F(EndToEndTest, MonthlyRebuildReclassifiesUpdateTypes) {
  RasedOptions options;
  options.dir = env::JoinPath(dir_.path(), "monthly");
  options.schema = CubeSchema::BenchScale();
  options.enable_warehouse = false;
  auto rased = Rased::Create(options);
  ASSERT_TRUE(rased.ok());

  SynthOptions synth;
  synth.seed = 34;
  synth.base_updates_per_day = 50.0;
  Date month = Date::FromYmd(2021, 3, 1);
  synth.period = DateRange(month, month.month_end());
  UpdateGenerator gen(synth, &rased.value()->world(),
                      rased.value()->road_types());

  // Daily crawl first (provisional classification)...
  for (Date d = month; d <= month.month_end(); d = d.next()) {
    DayArtifacts artifacts = gen.GenerateDayArtifacts(d);
    ASSERT_TRUE(rased.value()
                    ->IngestDailyArtifacts(d, artifacts.osc_xml,
                                           artifacts.changesets_xml)
                    .ok());
  }

  AnalysisQuery by_type;
  by_type.range = synth.period;
  by_type.group_update_type = true;
  auto provisional = rased.value()->Query(by_type);
  ASSERT_TRUE(provisional.ok());
  // Only two update-type rows exist before the monthly pass (Section V).
  EXPECT_EQ(provisional.value().rows.size(), 2u);

  // ... then the monthly full-history pass.
  MonthArtifacts monthly = gen.GenerateMonthArtifacts(month);
  ASSERT_TRUE(rased.value()
                  ->ApplyMonthlyArtifacts(month, monthly.history_xml,
                                          monthly.changesets_xml)
                  .ok());

  auto final_result = rased.value()->Query(by_type);
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(final_result.value().rows.size(), 4u);  // all four types now

  // Totals are preserved by the rebuild.
  uint64_t before = 0, after = 0;
  for (const ResultRow& r : provisional.value().rows) before += r.count;
  for (const ResultRow& r : final_result.value().rows) after += r.count;
  EXPECT_EQ(before, after);
}

TEST_F(EndToEndTest, MonthlyRebuildInvalidatesWarmCache) {
  // Regression test: a warmed static cache must not keep serving the
  // pre-rebuild cubes after ApplyMonthlyArtifacts rewrote them.
  RasedOptions options;
  options.dir = env::JoinPath(dir_.path(), "cache-invalidation");
  options.schema = CubeSchema::BenchScale();
  options.enable_warehouse = false;
  options.cache.byte_budget =
      CacheOptions::BytesForCubes(16, options.schema);
  auto rased = Rased::Create(options);
  ASSERT_TRUE(rased.ok());

  SynthOptions synth;
  synth.seed = 36;
  synth.base_updates_per_day = 40.0;
  Date month = Date::FromYmd(2021, 9, 1);
  synth.period = DateRange(month, month.month_end());
  UpdateGenerator gen(synth, &rased.value()->world(),
                      rased.value()->road_types());
  for (Date d = month; d <= month.month_end(); d = d.next()) {
    DayArtifacts files = gen.GenerateDayArtifacts(d);
    ASSERT_TRUE(rased.value()
                    ->IngestDailyArtifacts(d, files.osc_xml,
                                           files.changesets_xml)
                    .ok());
  }
  // Warm BEFORE the rebuild, so stale cubes sit in the cache.
  ASSERT_TRUE(rased.value()->WarmCache().ok());

  MonthArtifacts monthly = gen.GenerateMonthArtifacts(month);
  ASSERT_TRUE(rased.value()
                  ->ApplyMonthlyArtifacts(month, monthly.history_xml,
                                          monthly.changesets_xml)
                  .ok());

  AnalysisQuery by_type;
  by_type.range = synth.period;
  by_type.group_update_type = true;
  auto result = rased.value()->Query(by_type);
  ASSERT_TRUE(result.ok());
  // All four update types must be visible post-rebuild, not the two
  // provisional ones a stale cached cube would show.
  EXPECT_EQ(result.value().rows.size(), 4u);
}

TEST_F(EndToEndTest, RasedAndBaselineDbmsAgree) {
  // The Figure 10 comparison is only meaningful because both systems
  // compute the same answers; verify that here.
  RasedOptions options;
  options.dir = env::JoinPath(dir_.path(), "rased");
  options.schema = CubeSchema::BenchScale();
  options.enable_warehouse = false;
  auto rased = Rased::Create(options);
  ASSERT_TRUE(rased.ok());

  DbmsOptions dbms_options;
  dbms_options.dir = env::JoinPath(dir_.path(), "dbms");
  auto dbms = BaselineDbms::Create(dbms_options);
  ASSERT_TRUE(dbms.ok());

  SynthOptions synth;
  synth.seed = 35;
  synth.base_updates_per_day = 60.0;
  synth.period = DateRange(Date::FromYmd(2021, 6, 1),
                           Date::FromYmd(2021, 7, 31));
  UpdateGenerator gen(synth, &rased.value()->world(),
                      rased.value()->road_types());
  for (Date d = synth.period.first; d <= synth.period.last; d = d.next()) {
    auto records = gen.GenerateDayRecords(d);
    ASSERT_TRUE(rased.value()->IngestDayRecords(d, records).ok());
    ASSERT_TRUE(dbms.value()->Append(records).ok());
  }
  ASSERT_TRUE(dbms.value()->Sync().ok());

  // A suite of queries with various filters and groupings.
  std::vector<AnalysisQuery> queries;
  {
    AnalysisQuery q;
    q.range = DateRange(Date::FromYmd(2021, 6, 5), Date::FromYmd(2021, 7, 20));
    q.group_country = true;
    queries.push_back(q);

    q = AnalysisQuery();
    q.range = synth.period;
    q.group_element_type = true;
    q.group_update_type = true;
    queries.push_back(q);

    q = AnalysisQuery();
    q.range = DateRange(Date::FromYmd(2021, 6, 1), Date::FromYmd(2021, 6, 30));
    q.element_types = {ElementType::kWay};
    q.group_road_type = true;
    queries.push_back(q);

    q = AnalysisQuery();
    q.range = DateRange(Date::FromYmd(2021, 7, 1), Date::FromYmd(2021, 7, 7));
    q.group_date = true;
    q.group_country = true;
    queries.push_back(q);
  }

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto a = rased.value()->Query(queries[qi]);
    auto b = dbms.value()->Execute(queries[qi]);
    ASSERT_TRUE(a.ok()) << "query " << qi;
    ASSERT_TRUE(b.ok()) << "query " << qi;
    ASSERT_EQ(a.value().rows.size(), b.value().rows.size()) << "query " << qi;
    for (size_t i = 0; i < a.value().rows.size(); ++i) {
      EXPECT_EQ(a.value().rows[i].count, b.value().rows[i].count)
          << "query " << qi << " row " << i;
    }
  }
}

TEST_F(EndToEndTest, ReopenedSystemServesQueries) {
  std::string dir = env::JoinPath(dir_.path(), "reopen");
  uint64_t expected_total = 0;
  {
    auto rased = testing_helpers::MakePopulatedRased(
        dir, Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
    ASSERT_NE(rased, nullptr);
    AnalysisQuery q;
    q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
    auto result = rased->Query(q);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().rows.size(), 1u);
    expected_total = result.value().rows[0].count;
    ASSERT_TRUE(rased->Sync().ok());
  }
  RasedOptions options;
  options.dir = dir;
  options.schema = CubeSchema::BenchScale();
  options.cache.byte_budget =
      CacheOptions::BytesForCubes(32, options.schema);
  auto reopened = Rased::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE(reopened.value()->WarmCache().ok());
  AnalysisQuery q;
  q.range = DateRange(Date::FromYmd(2021, 1, 1), Date::FromYmd(2021, 1, 31));
  auto result = reopened.value()->Query(q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_EQ(result.value().rows[0].count, expected_total);
  // Sample queries work after the warehouse index rebuild.
  auto samples =
      reopened.value()->SampleInBox(BoundingBox{-90, -180, 90, 180}, 10);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples.value().size(), 10u);
}

// Road-type ids are cube coordinates: rased.meta records the table's list
// (its size and hash), and a directory written with another list does not
// open.
TEST_F(EndToEndTest, OpenRefusesAnotherRoadTypeList) {
  RasedOptions options;
  options.dir = env::JoinPath(dir_.path(), "roadtypes");
  options.schema = CubeSchema::BenchScale();
  ASSERT_TRUE(Rased::Create(options).ok());
  const std::string meta_path = env::JoinPath(options.dir, "rased.meta");
  auto meta = env::ReadFile(meta_path);
  ASSERT_TRUE(meta.ok());
  const size_t at = meta.value().find("roadtypes ");
  ASSERT_NE(at, std::string::npos) << meta.value();
  ASSERT_TRUE(Rased::Open(options).ok());

  std::string forged = meta.value();
  const size_t line_end = forged.find('\n', at);
  forged.replace(at, line_end - at, "roadtypes 58 0123456789abcdef");
  ASSERT_TRUE(env::WriteFileAtomic(meta_path, forged).ok());
  auto reopened = Rased::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().ToString().find("road-type list"),
            std::string::npos)
      << reopened.status().ToString();

  forged.erase(at, line_end - at + 1);
  ASSERT_TRUE(env::WriteFileAtomic(meta_path, forged).ok());
  reopened = Rased::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_NE(reopened.status().ToString().find("road-type list"),
            std::string::npos)
      << reopened.status().ToString();
}

// LoadOptions and Open read rased.meta through one parser: a line Open
// rejects as Corruption is Corruption for LoadOptions too.
TEST_F(EndToEndTest, LoadOptionsRejectsABadMetaLine) {
  RasedOptions options;
  options.dir = env::JoinPath(dir_.path(), "badmeta");
  options.schema = CubeSchema::BenchScale();
  options.num_levels = 3;
  options.enable_warehouse = false;
  ASSERT_TRUE(Rased::Create(options).ok());
  auto loaded = Rased::LoadOptions(options.dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().schema == options.schema);
  EXPECT_EQ(loaded.value().num_levels, 3);
  EXPECT_FALSE(loaded.value().enable_warehouse);

  const std::string meta_path = env::JoinPath(options.dir, "rased.meta");
  auto meta = env::ReadFile(meta_path);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(
      env::WriteFileAtomic(meta_path, meta.value() + "levels three four\n")
          .ok());
  loaded = Rased::LoadOptions(options.dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  auto reopened = Rased::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

}  // namespace
}  // namespace rased
