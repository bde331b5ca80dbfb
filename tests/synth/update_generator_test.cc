#include "synth/update_generator.h"

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "collect/daily_crawler.h"
#include "collect/monthly_crawler.h"

namespace rased {
namespace {

class UpdateGeneratorTest : public ::testing::Test {
 protected:
  UpdateGeneratorTest() : world_(64), road_types_(32) {
    options_.seed = 11;
    options_.base_updates_per_day = 60.0;
    options_.period =
        DateRange(Date::FromYmd(2020, 1, 1), Date::FromYmd(2021, 12, 31));
  }

  SynthOptions options_;
  WorldMap world_;
  RoadTypeTable road_types_;
};

TEST_F(UpdateGeneratorTest, DeterministicPerDay) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  Date d = Date::FromYmd(2020, 7, 1);
  auto a = gen.GenerateDayRecords(d);
  auto b = gen.GenerateDayRecords(d);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST_F(UpdateGeneratorTest, DifferentDaysDiffer) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  auto a = gen.GenerateDayRecords(Date::FromYmd(2020, 7, 1));
  auto b = gen.GenerateDayRecords(Date::FromYmd(2020, 7, 2));
  EXPECT_FALSE(a == b);
}

TEST_F(UpdateGeneratorTest, RecordsAreWellFormed) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  Date d = Date::FromYmd(2021, 3, 15);
  for (const UpdateRecord& r : gen.GenerateDayRecords(d)) {
    EXPECT_EQ(r.date, d);
    EXPECT_NE(r.country, kZoneUnknown);
    EXPECT_LT(r.country, world_.num_zones());
    EXPECT_LT(r.road_type, road_types_.capacity());
    EXPECT_TRUE((LatLon{r.lat, r.lon}).IsValid());
    // The sampled point lies in the claimed country.
    EXPECT_EQ(world_.CountryAt(LatLon{r.lat, r.lon}), r.country);
    EXPECT_GT(r.changeset_id, 0u);
  }
}

TEST_F(UpdateGeneratorTest, ChangesetsGroupConsecutiveRecords) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  auto records = gen.GenerateDayRecords(Date::FromYmd(2021, 3, 15));
  ASSERT_GT(records.size(), 10u);
  std::map<uint64_t, int> first_pos, last_pos;
  for (int i = 0; i < static_cast<int>(records.size()); ++i) {
    uint64_t cs = records[i].changeset_id;
    if (first_pos.find(cs) == first_pos.end()) first_pos[cs] = i;
    last_pos[cs] = i;
  }
  for (const auto& [cs, first] : first_pos) {
    // All records of one changeset are contiguous and one country.
    for (int i = first; i <= last_pos[cs]; ++i) {
      EXPECT_EQ(records[i].changeset_id, cs);
      EXPECT_EQ(records[i].country, records[first].country);
    }
  }
}

// The central synth/crawler consistency property: crawling the generated
// OSC+changeset files reproduces the directly generated records, modulo
// the crawler's provisional update classification and the way/relation
// location being the changeset bbox centre.
void ExpectDayRoundTripsThroughCrawler(const UpdateGenerator& gen,
                                       WorldMap* world,
                                       RoadTypeTable* road_types, Date d) {
  SCOPED_TRACE(d.ToString());
  auto direct = gen.GenerateDayRecords(d);
  DayArtifacts artifacts = gen.GenerateDayArtifacts(d);

  ChangesetStore changesets;
  ASSERT_TRUE(changesets.AddFromXml(artifacts.changesets_xml).ok());
  DailyCrawler crawler(world, road_types);
  std::vector<UpdateRecord> crawled;
  ASSERT_TRUE(
      crawler.CrawlDiff(artifacts.osc_xml, changesets, &crawled).ok());

  ASSERT_EQ(crawled.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(crawled[i].element_type, direct[i].element_type);
    EXPECT_EQ(crawled[i].date, direct[i].date);
    EXPECT_EQ(crawled[i].country, direct[i].country) << i;
    // The road type round-trips, the catch-all "other" included.
    EXPECT_EQ(crawled[i].road_type, direct[i].road_type);
    EXPECT_EQ(crawled[i].changeset_id, direct[i].changeset_id);
    // Classification is provisional: new stays new, the rest collapse.
    if (direct[i].update_type == UpdateType::kNew) {
      EXPECT_EQ(crawled[i].update_type, UpdateType::kNew);
    } else {
      EXPECT_EQ(crawled[i].update_type, kProvisionalUpdate);
    }
  }
  EXPECT_EQ(crawler.stats().unlocated, 0u);
}

// A monthly crawl of the generated history recovers the direct stream's
// full four-way classification, day by day.
void ExpectMonthRecoversClassification(const UpdateGenerator& gen,
                                       WorldMap* world,
                                       RoadTypeTable* road_types,
                                       Date month) {
  MonthArtifacts artifacts = gen.GenerateMonthArtifacts(month);

  ChangesetStore changesets;
  ASSERT_TRUE(changesets.AddFromXml(artifacts.changesets_xml).ok());
  MonthlyCrawler crawler(world, road_types);
  std::vector<UpdateRecord> crawled;
  DateRange window(month, month.month_end());
  ASSERT_TRUE(crawler
                  .CrawlHistory(artifacts.history_xml, changesets, window,
                                &crawled)
                  .ok());

  // Aggregate by (date, update_type) and compare with the direct stream.
  std::map<std::pair<int32_t, int>, int> direct_counts, crawled_counts;
  for (Date d = month; d <= month.month_end(); d = d.next()) {
    for (const UpdateRecord& r : gen.GenerateDayRecords(d)) {
      ++direct_counts[{r.date.days_since_epoch(),
                       static_cast<int>(r.update_type)}];
    }
  }
  for (const UpdateRecord& r : crawled) {
    ++crawled_counts[{r.date.days_since_epoch(),
                      static_cast<int>(r.update_type)}];
  }
  EXPECT_EQ(crawled_counts, direct_counts);
}

// The dashbench paper fixture's generator: paper-scale world and road
// types, 500 updates a day, here over June 2020 with seed 1.
struct PaperRate {
  PaperRate() : world(305), road_types(150) {
    options.seed = 1;
    options.base_updates_per_day = 500.0;
    options.period =
        DateRange(Date::FromYmd(2020, 1, 1), Date::FromYmd(2021, 12, 31));
  }
  SynthOptions options;
  WorldMap world;
  RoadTypeTable road_types;
  const Date month = Date::FromYmd(2020, 6, 1);
};

TEST_F(UpdateGeneratorTest, DailyArtifactsRoundTripThroughCrawler) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  ExpectDayRoundTripsThroughCrawler(gen, &world_, &road_types_,
                                    Date::FromYmd(2021, 6, 10));

  PaperRate paper;
  UpdateGenerator paper_gen(paper.options, &paper.world, &paper.road_types);
  for (Date d = paper.month; d <= paper.month.month_end(); d = d.next()) {
    ExpectDayRoundTripsThroughCrawler(paper_gen, &paper.world,
                                      &paper.road_types, d);
  }
}

TEST_F(UpdateGeneratorTest, MonthArtifactsRecoverFullClassification) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  ExpectMonthRecoversClassification(gen, &world_, &road_types_,
                                    Date::FromYmd(2021, 2, 1));

  PaperRate paper;
  UpdateGenerator paper_gen(paper.options, &paper.world, &paper.road_types);
  ExpectMonthRecoversClassification(paper_gen, &paper.world,
                                    &paper.road_types, paper.month);
}

TEST_F(UpdateGeneratorTest, MonthHistoryCountryAssignmentsMatch) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  Date month = Date::FromYmd(2021, 2, 1);
  MonthArtifacts artifacts = gen.GenerateMonthArtifacts(month);
  ChangesetStore changesets;
  ASSERT_TRUE(changesets.AddFromXml(artifacts.changesets_xml).ok());
  MonthlyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> crawled;
  ASSERT_TRUE(crawler
                  .CrawlHistory(artifacts.history_xml, changesets,
                                DateRange(month, month.month_end()), &crawled)
                  .ok());
  std::map<ZoneId, int> direct_by_country, crawled_by_country;
  for (Date d = month; d <= month.month_end(); d = d.next()) {
    for (const UpdateRecord& r : gen.GenerateDayRecords(d)) {
      ++direct_by_country[r.country];
    }
  }
  for (const UpdateRecord& r : crawled) ++crawled_by_country[r.country];
  EXPECT_EQ(crawled_by_country, direct_by_country);
  EXPECT_EQ(crawler.stats().unlocated, 0u);
}

TEST_F(UpdateGeneratorTest, VolumeTracksIntensity) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  // Sum generated volume over a week and compare with the model's mean.
  double expected = 0.0;
  size_t actual = 0;
  for (int i = 0; i < 7; ++i) {
    Date d = Date::FromYmd(2021, 5, 1).AddDays(i);
    for (ZoneId c : world_.country_ids()) {
      expected += gen.activity().CountryIntensity(c, d);
    }
    actual += gen.GenerateDayRecords(d).size();
  }
  EXPECT_NEAR(static_cast<double>(actual), expected,
              5 * std::sqrt(expected) + 10);
}

}  // namespace
}  // namespace rased
