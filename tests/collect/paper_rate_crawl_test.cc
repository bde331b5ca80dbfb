#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "collect/changeset_store.h"
#include "collect/daily_crawler.h"
#include "collect/monthly_crawler.h"
#include "obs/heap_stats.h"
#include "synth/update_generator.h"

namespace rased {
namespace {

// One paper-rate month (June 2020, the dashbench paper fixture's rate and
// schema, seed 1): every day's diff crawl, then the month's history crawl.
class PaperRateCrawlTest : public ::testing::Test {
 protected:
  PaperRateCrawlTest() : world_(305), road_types_(150) {
    options_.seed = 1;
    options_.base_updates_per_day = 500.0;
    options_.period =
        DateRange(Date::FromYmd(2020, 1, 1), Date::FromYmd(2021, 12, 31));
  }

  const Date month_ = Date::FromYmd(2020, 6, 1);
  SynthOptions options_;
  WorldMap world_;
  RoadTypeTable road_types_;
};

uint64_t Fnv1a(uint64_t h, const std::vector<UpdateRecord>& records) {
  unsigned char buf[UpdateRecord::kEncodedBytes];
  for (const UpdateRecord& r : records) {
    r.EncodeTo(buf);
    for (unsigned char b : buf) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// The crawled tuples of a paper-rate month, bit for bit (coordinates
// included): a parser change that alters any field of any tuple shows up
// here, not only as a shifted aggregate.
TEST_F(PaperRateCrawlTest, CrawledTuplesHashIsPinned) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  uint64_t hash = 14695981039346656037ull;
  size_t daily_records = 0;
  for (Date d = month_; d <= month_.month_end(); d = d.next()) {
    DayArtifacts artifacts = gen.GenerateDayArtifacts(d);
    ChangesetStore changesets;
    ASSERT_TRUE(changesets.AddFromXml(artifacts.changesets_xml).ok());
    DailyCrawler crawler(&world_, &road_types_);
    std::vector<UpdateRecord> records;
    ASSERT_TRUE(
        crawler.CrawlDiff(artifacts.osc_xml, changesets, &records).ok());
    hash = Fnv1a(hash, records);
    daily_records += records.size();
  }

  MonthArtifacts artifacts = gen.GenerateMonthArtifacts(month_);
  ChangesetStore changesets;
  ASSERT_TRUE(changesets.AddFromXml(artifacts.changesets_xml).ok());
  MonthlyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> records;
  ASSERT_TRUE(crawler
                  .CrawlHistory(artifacts.history_xml, changesets,
                                DateRange(month_, month_.month_end()),
                                &records)
                  .ok());
  hash = Fnv1a(hash, records);

  EXPECT_EQ(daily_records, records.size());
  EXPECT_EQ(records.size(), 17883u);
  EXPECT_EQ(hash, 4295855666322455897ull);
}

// The crawl's allocations follow the tuples it emits, not the XML bytes it
// reads: one paper-rate day (its changeset store plus its diff) may cost at
// most a tenth of the 3,420 allocator calls the owned-element crawl made.
TEST_F(PaperRateCrawlTest, DayCrawlAllocationsAreBounded) {
  UpdateGenerator gen(options_, &world_, &road_types_);
  const Date day = Date::FromYmd(2020, 6, 15);
  DayArtifacts artifacts = gen.GenerateDayArtifacts(day);

  uint64_t alloc_ops = 0;
  size_t records_emitted = 0;
  {
    ResourceScope scope;
    ChangesetStore changesets;
    ASSERT_TRUE(changesets.AddFromXml(artifacts.changesets_xml).ok());
    DailyCrawler crawler(&world_, &road_types_);
    std::vector<UpdateRecord> records;
    ASSERT_TRUE(
        crawler.CrawlDiff(artifacts.osc_xml, changesets, &records).ok());
    records_emitted = records.size();
    alloc_ops = scope.Usage().alloc_ops;
  }
  RecordProperty("alloc_ops", static_cast<int>(alloc_ops));
  EXPECT_GT(records_emitted, 500u);
  EXPECT_LE(alloc_ops, 342u) << records_emitted << " records";
}

}  // namespace
}  // namespace rased
