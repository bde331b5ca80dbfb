#include "dashboard/render.h"

#include <gtest/gtest.h>

#include "osm/road_types.h"

namespace rased {
namespace {

class RenderTest : public ::testing::Test {
 protected:
  RenderTest() : world_(305), road_types_(150) {
    ctx_.world = &world_;
    ctx_.road_types = &road_types_;
    germany_ = world_.FindByName("Germany").value();
    france_ = world_.FindByName("France").value();
  }

  ResultRow Row(int32_t country, uint64_t count) {
    ResultRow row;
    row.country = country;
    row.count = count;
    return row;
  }

  WorldMap world_;
  RoadTypeTable road_types_;
  RenderContext ctx_;
  ZoneId germany_ = 0, france_ = 0;
};

TEST_F(RenderTest, ContextResolvesNames) {
  EXPECT_EQ(ctx_.CountryName(germany_), "Germany");
  EXPECT_EQ(ctx_.CountryName(-1), "*");
  EXPECT_EQ(ctx_.RoadTypeName(road_types_.Lookup("residential")),
            "residential");
  EXPECT_EQ(ctx_.RoadTypeName(-1), "*");
}

TEST_F(RenderTest, TableSortsByCountDesc) {
  QueryResult result;
  result.rows = {Row(germany_, 10), Row(france_, 99)};
  AnalysisQuery q;
  q.group_country = true;
  std::string table = RenderTable(result, q, ctx_);
  size_t france_pos = table.find("France");
  size_t germany_pos = table.find("Germany");
  ASSERT_NE(france_pos, std::string::npos);
  ASSERT_NE(germany_pos, std::string::npos);
  EXPECT_LT(france_pos, germany_pos);
  // Counts are thousands-separated like the paper's Figure 3.
  EXPECT_NE(table.find("99"), std::string::npos);
}

TEST_F(RenderTest, TableThousandsSeparators) {
  QueryResult result;
  result.rows = {Row(germany_, 9142858)};
  AnalysisQuery q;
  q.group_country = true;
  EXPECT_NE(RenderTable(result, q, ctx_).find("9,142,858"),
            std::string::npos);
}

TEST_F(RenderTest, TableTruncatesLongResults) {
  QueryResult result;
  for (int i = 0; i < 30; ++i) {
    result.rows.push_back(Row(static_cast<int32_t>(world_.country_ids()[i]),
                              100 - static_cast<uint64_t>(i)));
  }
  AnalysisQuery q;
  q.group_country = true;
  std::string table = RenderTable(result, q, ctx_, TableSort::kCount, 10);
  EXPECT_NE(table.find("20 more rows"), std::string::npos);
}

TEST_F(RenderTest, TablePercentageColumn) {
  QueryResult result;
  ResultRow row = Row(germany_, 500);
  row.percentage = 0.1234;
  result.rows = {row};
  AnalysisQuery q;
  q.group_country = true;
  q.percentage = true;
  std::string table = RenderTable(result, q, ctx_);
  EXPECT_NE(table.find("percent"), std::string::npos);
  EXPECT_NE(table.find("0.1234"), std::string::npos);
}

TEST_F(RenderTest, BarChartScalesBars) {
  QueryResult result;
  result.rows = {Row(germany_, 100), Row(france_, 50)};
  AnalysisQuery q;
  q.group_country = true;
  std::string chart = RenderBarChart(result, q, ctx_, /*width=*/40);
  // Germany's bar is twice France's.
  size_t g_line_start = chart.find("Germany");
  size_t f_line_start = chart.find("France");
  ASSERT_NE(g_line_start, std::string::npos);
  ASSERT_NE(f_line_start, std::string::npos);
  auto count_hashes = [&chart](size_t from) {
    size_t end = chart.find('\n', from);
    return std::count(chart.begin() + static_cast<long>(from),
                      chart.begin() + static_cast<long>(end), '#');
  };
  EXPECT_EQ(count_hashes(g_line_start), 40);
  EXPECT_EQ(count_hashes(f_line_start), 20);
}

TEST_F(RenderTest, PivotTableHasPaperColumns) {
  QueryResult result;
  ResultRow row;
  row.country = germany_;
  row.element_type = static_cast<int32_t>(ElementType::kWay);
  row.update_type = static_cast<int32_t>(UpdateType::kNew);
  row.count = 123456;
  result.rows.push_back(row);
  row.update_type = static_cast<int32_t>(UpdateType::kGeometry);
  row.count = 1000;
  result.rows.push_back(row);

  std::string pivot = RenderCountryElementPivot(result, ctx_);
  EXPECT_NE(pivot.find("Ways Created"), std::string::npos);
  EXPECT_NE(pivot.find("Ways Modified"), std::string::npos);
  EXPECT_NE(pivot.find("123,456"), std::string::npos);
  EXPECT_NE(pivot.find("124,456"), std::string::npos);  // the All column
}

TEST_F(RenderTest, TimeSeriesRequiresDateGrouping) {
  QueryResult result;
  AnalysisQuery q;
  EXPECT_NE(RenderTimeSeries(result, q, ctx_).find("requires"),
            std::string::npos);
}

TEST_F(RenderTest, TimeSeriesRendersSeriesPerCountry) {
  QueryResult result;
  for (int day = 0; day < 30; ++day) {
    for (ZoneId c : {germany_, france_}) {
      ResultRow row;
      row.country = static_cast<int32_t>(c);
      row.date = Date::FromYmd(2021, 1, 1).AddDays(day);
      row.has_date = true;
      row.count = static_cast<uint64_t>(c == germany_ ? 100 + day : 20);
      result.rows.push_back(row);
    }
  }
  AnalysisQuery q;
  q.group_date = true;
  q.group_country = true;
  std::string chart = RenderTimeSeries(result, q, ctx_, 40, 10);
  EXPECT_NE(chart.find("Germany"), std::string::npos);
  EXPECT_NE(chart.find("France"), std::string::npos);
  EXPECT_NE(chart.find("2021-01-01"), std::string::npos);
  EXPECT_NE(chart.find("max"), std::string::npos);
}

TEST_F(RenderTest, ChoroplethShadesActiveZones) {
  QueryResult result;
  result.rows = {Row(germany_, 1000000)};
  std::string map = RenderChoropleth(result, ctx_, 60, 20);
  // Must contain ocean, land with zero activity, and shaded cells.
  EXPECT_NE(map.find('~'), std::string::npos);
  EXPECT_NE(map.find(' '), std::string::npos);
  EXPECT_NE(map.find('@'), std::string::npos);
  // 20 lines of 60 chars.
  EXPECT_EQ(std::count(map.begin(), map.end(), '\n'), 20);
}

TEST_F(RenderTest, TimelapseOneFramePerMonth) {
  QueryResult result;
  for (int m = 1; m <= 3; ++m) {
    ResultRow row = Row(germany_, 100);
    row.date = Date::FromYmd(2021, m, 10);
    row.has_date = true;
    result.rows.push_back(row);
  }
  auto frames = RenderTimelapse(result, ctx_, 40, 12);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_NE(frames[0].find("2021-01-01"), std::string::npos);
  EXPECT_NE(frames[2].find("2021-03-01"), std::string::npos);
}

TEST_F(RenderTest, CsvHeaderFollowsGrouping) {
  QueryResult result;
  ResultRow row = Row(germany_, 42);
  row.update_type = static_cast<int32_t>(UpdateType::kNew);
  result.rows = {row};
  AnalysisQuery q;
  q.group_country = true;
  q.group_update_type = true;
  std::string csv = RenderCsv(result, q, ctx_);
  EXPECT_EQ(csv, "country,update_type,count\nGermany,new,42\n");
}

TEST_F(RenderTest, CsvQuotesSpecialCharacters) {
  // No name the fixed world map or road-type table holds needs quoting,
  // so the field writer is checked directly.
  std::string csv;
  AppendCsvField(&csv, "with,comma\"quote");
  EXPECT_EQ(csv, "\"with,comma\"\"quote\"");
  csv.clear();
  AppendCsvField(&csv, "two\nlines");
  EXPECT_EQ(csv, "\"two\nlines\"");
  csv.clear();
  AppendCsvField(&csv, "residential");
  EXPECT_EQ(csv, "residential");
}

TEST_F(RenderTest, CsvWithDateAndPercentage) {
  QueryResult result;
  ResultRow row = Row(germany_, 100);
  row.date = Date::FromYmd(2021, 5, 4);
  row.has_date = true;
  row.percentage = 1.25;
  result.rows = {row};
  AnalysisQuery q;
  q.group_country = true;
  q.group_date = true;
  q.percentage = true;
  std::string csv = RenderCsv(result, q, ctx_);
  EXPECT_NE(csv.find("country,date,count,percentage"), std::string::npos);
  EXPECT_NE(csv.find("Germany,2021-05-04,100,1.250000"), std::string::npos);
}

TEST_F(RenderTest, JsonIncludesRowsAndStats) {
  QueryResult result;
  result.rows = {Row(germany_, 42)};
  result.stats.cubes_total = 3;
  result.stats.cubes_from_cache = 2;
  AnalysisQuery q;
  q.group_country = true;
  std::string json = RenderJson(result, q, ctx_);
  EXPECT_NE(json.find("\"country\":\"Germany\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":42"), std::string::npos);
  EXPECT_NE(json.find("\"cubes_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"cubes_from_cache\":2"), std::string::npos);
}

}  // namespace
}  // namespace rased
