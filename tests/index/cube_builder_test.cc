#include "index/cube_builder.h"

#include <gtest/gtest.h>

namespace rased {
namespace {

class CubeBuilderTest : public ::testing::Test {
 protected:
  CubeBuilderTest() : schema_(CubeSchema::PaperScale()), world_(305) {}

  UpdateRecord RecordIn(const char* country, UpdateType ut = UpdateType::kNew,
                        ElementType et = ElementType::kWay,
                        RoadTypeId rt = 5) {
    ZoneId zone = world_.FindByName(country).value();
    LatLon p = world_.zone(zone).bounds.Center();
    UpdateRecord r;
    r.element_type = et;
    r.date = Date::FromYmd(2021, 1, 1);
    r.country = zone;
    r.lat = p.lat;
    r.lon = p.lon;
    r.road_type = rt;
    r.update_type = ut;
    r.changeset_id = 1;
    return r;
  }

  CubeSchema schema_;
  WorldMap world_;
};

TEST_F(CubeBuilderTest, CountryAndContinentIncremented) {
  CubeBuilder builder(schema_, &world_);
  DataCube cube(schema_);
  builder.AddRecord(RecordIn("Germany"), &cube);

  ZoneId germany = world_.FindByName("Germany").value();
  ZoneId europe = world_.FindByName("Europe").value();
  uint32_t way = static_cast<uint32_t>(ElementType::kWay);
  uint32_t nw = static_cast<uint32_t>(UpdateType::kNew);
  EXPECT_EQ(cube.Get(way, germany, 5, nw), 1u);
  EXPECT_EQ(cube.Get(way, europe, 5, nw), 1u);
  EXPECT_EQ(cube.Total(), 2u);
}

TEST_F(CubeBuilderTest, UsaIncludesStateCell) {
  CubeBuilder builder(schema_, &world_);
  DataCube cube(schema_);
  builder.AddRecord(RecordIn("United States"), &cube);
  // Country + continent + one state = 3 increments.
  EXPECT_EQ(cube.Total(), 3u);
}

TEST_F(CubeBuilderTest, UnknownCountryGoesToUnknownBucket) {
  CubeBuilder builder(schema_, &world_);
  DataCube cube(schema_);
  UpdateRecord r = RecordIn("Germany");
  r.country = kZoneUnknown;
  builder.AddRecord(r, &cube);
  uint32_t way = static_cast<uint32_t>(ElementType::kWay);
  uint32_t nw = static_cast<uint32_t>(UpdateType::kNew);
  EXPECT_EQ(cube.Get(way, kZoneUnknown, 5, nw), 1u);
  EXPECT_EQ(cube.Total(), 1u);
}

TEST_F(CubeBuilderTest, OversizedRoadTypeCollapsesToOther) {
  CubeBuilder builder(schema_, &world_);
  DataCube cube(schema_);
  UpdateRecord r = RecordIn("France");
  r.road_type = 60000;  // beyond the 150-wide dimension
  builder.AddRecord(r, &cube);
  ZoneId france = world_.FindByName("France").value();
  uint32_t way = static_cast<uint32_t>(ElementType::kWay);
  uint32_t nw = static_cast<uint32_t>(UpdateType::kNew);
  EXPECT_EQ(cube.Get(way, france, 1, nw), 1u);  // slot 1 = "other"
}

TEST_F(CubeBuilderTest, BuildCubeAggregatesAllRecords) {
  CubeBuilder builder(schema_, &world_);
  std::vector<UpdateRecord> records = {
      RecordIn("India"), RecordIn("India", UpdateType::kDelete),
      RecordIn("Qatar")};
  DataCube cube = builder.BuildCube(records);
  ZoneId india = world_.FindByName("India").value();
  CubeSlice slice;
  slice.countries = {india};
  EXPECT_EQ(cube.SumSlice(slice), 2u);
}

TEST_F(CubeBuilderTest, BuildDailyCubesGroupsByDate) {
  CubeBuilder builder(schema_, &world_);
  UpdateRecord day1 = RecordIn("Kenya");
  UpdateRecord day2 = RecordIn("Kenya");
  day2.date = day1.date.next();
  auto cubes = builder.BuildDailyCubes({day1, day2, day2});
  ASSERT_EQ(cubes.size(), 2u);
  EXPECT_EQ(cubes.at(day1.date).Total(), 2u);   // country + continent
  EXPECT_EQ(cubes.at(day2.date).Total(), 4u);
}

TEST_F(CubeBuilderTest, SparseBuildsMatchDenseBuilds) {
  CubeBuilder builder(schema_, &world_);
  UpdateRecord unknown = RecordIn("Chile");
  unknown.country = kZoneUnknown;
  UpdateRecord later = RecordIn("United States", UpdateType::kDelete);
  later.date = later.date.AddDays(3);
  std::vector<UpdateRecord> records = {
      RecordIn("Kenya"), RecordIn("Kenya"), RecordIn("United States"),
      unknown, later};

  std::vector<CubeCell> pairs;
  DataCube dense(schema_);
  for (const UpdateRecord& r : records) {
    builder.AddRecord(r, &pairs);
    builder.AddRecord(r, &dense);
  }
  EXPECT_EQ(pairs.size(), dense.Total());  // one pair per increment
  EXPECT_EQ(SparseCube::FromPairs(schema_, pairs).ToDense(), dense);
  EXPECT_EQ(builder.BuildSparseCube(records).ToDense(), dense);
  EXPECT_EQ(builder.BuildCube(records), dense);

  auto sparse_days = builder.BuildSparseDailyCubes(records);
  auto dense_days = builder.BuildDailyCubes(records);
  ASSERT_EQ(sparse_days.size(), 2u);
  ASSERT_EQ(dense_days.size(), 2u);
  for (const auto& [day, cube] : sparse_days) {
    EXPECT_EQ(cube.ToDense(), dense_days.at(day)) << day.ToString();
  }
}

using CubeBuilderDeathTest = CubeBuilderTest;

TEST_F(CubeBuilderDeathTest, RejectsMismatchedWorld) {
  WorldMap small(64);
  EXPECT_DEATH(CubeBuilder(schema_, &small), "zones");
}

}  // namespace
}  // namespace rased
