#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "collect/changeset_store.h"
#include "collect/monthly_crawler.h"
#include "core/rased.h"
#include "cube/cube_codec.h"
#include "io/env.h"
#include "obs/heap_stats.h"
#include "synth/update_generator.h"

namespace rased {
namespace {

// The ingest write path (sparse cell lists, cube/sparse_cube.h) against a
// naive reference: paper-schema days through Rased::IngestDayRecords and
// two ApplyMonthlyArtifacts calls, crossing week, month and year ends.
// Every catalog entry must be the blob the dense encoder makes from a
// plain DataCube sum of the entry's days, query rows must equal the same
// sums, and the index must read and write exactly the pages the dense
// write path did.

constexpr double kRecordsPerDay = 500.0;  // ~600 records a day

SynthOptions PaperSynth(Date first, Date last) {
  SynthOptions synth;
  synth.seed = 17;
  synth.base_updates_per_day = kRecordsPerDay;
  synth.period = DateRange(first, last);
  return synth;
}

std::unique_ptr<Rased> MakePaperRased(const std::string& dir) {
  RasedOptions options;
  options.dir = dir;
  options.schema = CubeSchema::PaperScale();
  options.device = DeviceModel::None();
  auto rased = Rased::Create(options);
  if (!rased.ok()) return nullptr;
  return std::move(rased).value();
}

/// The month's records as the monthly crawl classifies them, by day.
std::map<Date, std::vector<UpdateRecord>> CrawlMonth(
    Rased* rased, const MonthArtifacts& artifacts, Date month_start) {
  ChangesetStore changesets;
  EXPECT_TRUE(changesets.AddFromXml(artifacts.changesets_xml).ok());
  MonthlyCrawler crawler(&rased->world(), rased->road_types());
  std::vector<UpdateRecord> records;
  EXPECT_TRUE(crawler
                  .CrawlHistory(artifacts.history_xml, changesets,
                                DateRange(month_start, month_start.month_end()),
                                &records)
                  .ok());
  std::map<Date, std::vector<UpdateRecord>> by_day;
  for (Date d = month_start; d <= month_start.month_end(); d = d.next()) {
    by_day[d];  // quiet days hold an empty cube
  }
  for (const UpdateRecord& r : records) by_day[r.date].push_back(r);
  return by_day;
}

/// The reference: one dense cube summing every record of [range], built
/// with plain DataCube increments.
DataCube DenseSum(const CubeBuilder& builder,
                  const std::map<Date, std::vector<UpdateRecord>>& days,
                  const DateRange& range) {
  DataCube sum(builder.schema());
  for (const auto& [day, records] : days) {
    if (!range.Contains(day)) continue;
    for (const UpdateRecord& r : records) builder.AddRecord(r, &sum);
  }
  return sum;
}

using RowKey = std::tuple<int32_t, int32_t, int32_t, int32_t>;

/// The (element, country, road, update) rows of `q` as the reference
/// gives them: the non-zero cells of the listed zones.
std::map<RowKey, uint64_t> ExpectedRows(const DataCube& sum,
                                        const std::vector<ZoneId>& zones) {
  const CubeSchema& s = sum.schema();
  std::map<RowKey, uint64_t> rows;
  for (ZoneId zone : zones) {
    for (uint32_t et = 0; et < s.num_element_types; ++et) {
      for (uint32_t rt = 0; rt < s.num_road_types; ++rt) {
        for (uint32_t ut = 0; ut < s.num_update_types; ++ut) {
          uint64_t count = sum.Get(et, zone, rt, ut);
          if (count != 0) {
            rows[RowKey(et, zone, rt, ut)] = count;
          }
        }
      }
    }
  }
  return rows;
}

std::map<RowKey, uint64_t> ActualRows(const QueryResult& result) {
  std::map<RowKey, uint64_t> rows;
  for (const ResultRow& row : result.rows) {
    if (row.count == 0) continue;
    rows[RowKey(row.element_type, row.country, row.road_type,
                row.update_type)] = row.count;
  }
  return rows;
}

class IngestEquivalenceTest : public ::testing::Test {
 protected:
  TempDir dir_{"ingest-equivalence"};
};

TEST_F(IngestEquivalenceTest, PaperScaleIngestMatchesDenseReference) {
  // 70 days: two month ends, the 2021 year end, ten week ends.
  const Date first = Date::FromYmd(2021, 11, 1);
  const Date last = Date::FromYmd(2022, 1, 9);
  auto rased = MakePaperRased(env::JoinPath(dir_.path(), "paper"));
  ASSERT_NE(rased, nullptr);
  UpdateGenerator gen(PaperSynth(first, last), &rased->world(),
                      rased->road_types());
  const CubeSchema schema = rased->options().schema;
  CubeBuilder builder(schema, &rased->world());

  // Each day's records as the index should hold them at the end: the
  // daily crawl's, replaced by the monthly crawl's at each month end.
  std::map<Date, std::vector<UpdateRecord>> days;
  int month_ends = 0;
  for (Date d = first; d <= last; d = d.next()) {
    days[d] = gen.GenerateDayRecords(d);
    ASSERT_TRUE(rased->IngestDayRecords(d, days[d]).ok()) << d.ToString();
    if (!d.is_month_end()) continue;
    const Date month = d.month_start();
    MonthArtifacts artifacts = gen.GenerateMonthArtifacts(month);
    ASSERT_TRUE(rased
                    ->ApplyMonthlyArtifacts(month, artifacts.history_xml,
                                            artifacts.changesets_xml)
                    .ok());
    for (auto& [day, records] : CrawlMonth(rased.get(), artifacts, month)) {
      days[day] = std::move(records);
    }
    ++month_ends;
  }
  ASSERT_EQ(month_ends, 2);

  // The dense write path read and wrote exactly these pages for this
  // ingest (the paper's maintenance I/O, Section VI-A).
  const IoStats io = rased->index()->pager()->stats();
  EXPECT_EQ(io.page_reads, 85u);
  EXPECT_EQ(io.page_writes, 388u);

  // Every catalog entry, level by level, against the reference blob.
  const TemporalIndex& index = *rased->index();
  const CatalogSnapshot snapshot = index.Snapshot();
  const size_t payload = index.pager()->payload_size();
  const size_t expected_per_level[kNumLevels] = {70, 9, 2, 1};
  for (int level = 0; level < kNumLevels; ++level) {
    const std::vector<CubeKey> keys =
        snapshot.LatestKeys(static_cast<Level>(level), 1000);
    EXPECT_EQ(keys.size(), expected_per_level[level]) << level;
    for (const CubeKey& key : keys) {
      SCOPED_TRACE(key.ToString());
      const EncodedCube expected =
          EncodedCube::Encode(DenseSum(builder, days, key.range()));
      std::vector<unsigned char> want(expected.SerializedBytes());
      expected.SerializeTo(want.data());

      std::optional<CubeLoc> loc = snapshot.LocOf(key);
      ASSERT_TRUE(loc.has_value());
      EXPECT_EQ(loc->encoding, expected.encoding());
      EXPECT_EQ(loc->blob_bytes, want.size());
      EXPECT_EQ(loc->num_pages, (want.size() + payload - 1) / payload);
      std::vector<PageId> pages;
      for (uint32_t k = 0; k < loc->num_pages; ++k) {
        pages.push_back(loc->first_page + k);
      }
      std::vector<unsigned char> got(pages.size() * payload);
      ASSERT_TRUE(index.pager()->ReadPages(pages, got.data()).ok());
      got.resize(want.size());
      EXPECT_TRUE(got == want) << "blob bytes differ";
    }
  }

  // Query rows equal the reference sums, over the whole coverage (yearly
  // and monthly cubes) and over a window cutting through weeks.
  std::vector<ZoneId> zones;
  for (const char* name : {"Germany", "Europe", "United States", "India"}) {
    zones.push_back(rased->CountryId(name).value());
  }
  for (const DateRange& range :
       {DateRange(first, last), DateRange(Date::FromYmd(2021, 11, 20),
                                          Date::FromYmd(2022, 1, 3))}) {
    SCOPED_TRACE(range.ToString());
    AnalysisQuery q;
    q.range = range;
    q.countries = zones;
    q.group_element_type = true;
    q.group_country = true;
    q.group_road_type = true;
    q.group_update_type = true;
    auto result = rased->Query(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::map<RowKey, uint64_t> want =
        ExpectedRows(DenseSum(builder, days, range), zones);
    EXPECT_FALSE(want.empty());
    EXPECT_TRUE(ActualRows(result.value()) == want);
  }
}

TEST_F(IngestEquivalenceTest, PeakHeapStaysBelowOneDenseCube) {
  // A paper-scale day, a week end and the month end that follows it (a
  // monthly rollup over the weeks), then the month's rebuild: none may
  // hold as much heap as one dense cube.
  const Date first = Date::FromYmd(2021, 11, 1);
  const Date month_end = Date::FromYmd(2021, 11, 30);
  auto rased = MakePaperRased(env::JoinPath(dir_.path(), "heap"));
  ASSERT_NE(rased, nullptr);
  UpdateGenerator gen(PaperSynth(first, month_end), &rased->world(),
                      rased->road_types());
  const int64_t dense_bytes =
      static_cast<int64_t>(rased->options().schema.cube_bytes());

  int64_t day_peak = 0;
  for (Date d = first; d <= month_end; d = d.next()) {
    const std::vector<UpdateRecord> records = gen.GenerateDayRecords(d);
    ResourceScope scope;
    ASSERT_TRUE(rased->IngestDayRecords(d, records).ok());
    day_peak = std::max(day_peak, scope.Usage().peak_bytes);
  }
  EXPECT_GT(day_peak, 0);
  EXPECT_LT(day_peak, dense_bytes);

  const MonthArtifacts artifacts = gen.GenerateMonthArtifacts(first);
  ResourceScope scope;
  ASSERT_TRUE(rased
                  ->ApplyMonthlyArtifacts(first, artifacts.history_xml,
                                          artifacts.changesets_xml)
                  .ok());
  const int64_t month_peak = scope.Usage().peak_bytes;
  EXPECT_GT(month_peak, 0);
  EXPECT_LT(month_peak, dense_bytes);
}

}  // namespace
}  // namespace rased
