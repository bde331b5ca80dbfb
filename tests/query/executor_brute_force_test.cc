#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "index/cube_builder.h"
#include "index/temporal_index.h"
#include "io/env.h"
#include "query/query_executor.h"
#include "synth/update_generator.h"
#include "util/random.h"

namespace rased {
namespace {

// The strongest executor correctness property: for randomized queries over
// a randomized record stream, the cube-index answer must equal a
// brute-force scan over the raw records. This checks the whole chain —
// CubeBuilder zone expansion, rollups, the level optimizer's cover, and
// the group-by fold — against first principles.

using GroupKey = std::tuple<int32_t, int32_t, int32_t, int32_t, int32_t>;

std::map<GroupKey, uint64_t> BruteForce(
    const std::vector<UpdateRecord>& records, const AnalysisQuery& q,
    const WorldMap& world) {
  auto matches = [](auto&& list, auto value) {
    if (list.empty()) return true;
    for (auto v : list) {
      if (v == value) return true;
    }
    return false;
  };
  std::map<GroupKey, uint64_t> groups;
  for (const UpdateRecord& r : records) {
    if (!q.range.empty() && !q.range.Contains(r.date)) continue;
    if (!matches(q.element_types, r.element_type)) continue;
    if (!matches(q.road_types, r.road_type)) continue;
    if (!matches(q.update_types, r.update_type)) continue;
    // Country-dimension semantics mirror the cube exactly: a record
    // increments the cell of every containing zone (country, continent,
    // state). With no filter, the default partition counts the record
    // once under its own country; with a filter, the record contributes
    // once per *distinct* listed zone that contains it (a record can
    // match both "Germany" and "Europe" if both are listed, but IN-lists
    // are sets: naming Germany twice must not double-count).
    std::vector<int32_t> country_keys;
    if (q.countries.empty()) {
      country_keys.push_back(q.group_country
                                 ? static_cast<int32_t>(r.country)
                                 : ResultRow::kNoGroup);
    } else {
      std::vector<ZoneId> wanted_set(q.countries);
      std::sort(wanted_set.begin(), wanted_set.end());
      wanted_set.erase(std::unique(wanted_set.begin(), wanted_set.end()),
                       wanted_set.end());
      WorldMap::ZoneSet zones =
          world.ZonesForCountry(r.country, LatLon{r.lat, r.lon});
      for (ZoneId wanted : wanted_set) {
        for (int i = 0; i < zones.count; ++i) {
          if (zones.ids[i] == wanted) {
            country_keys.push_back(q.group_country
                                       ? static_cast<int32_t>(wanted)
                                       : ResultRow::kNoGroup);
          }
        }
      }
      if (country_keys.empty()) continue;
    }
    for (int32_t country_key : country_keys) {
      GroupKey gk{q.group_element_type ? static_cast<int32_t>(r.element_type)
                                       : ResultRow::kNoGroup,
                  q.group_date ? r.date.days_since_epoch()
                               : ResultRow::kNoGroup,
                  country_key,
                  q.group_road_type ? static_cast<int32_t>(r.road_type)
                                    : ResultRow::kNoGroup,
                  q.group_update_type ? static_cast<int32_t>(r.update_type)
                                      : ResultRow::kNoGroup};
      groups[gk] += 1;
    }
  }
  return groups;
}

/// Three months of a randomized record stream at bench scale. BuildIndex
/// indexes it under an encoding policy and keeps the records for the
/// brute-force reference.
class ExecutorBruteForceTest : public ::testing::Test {
 protected:
  ExecutorBruteForceTest()
      : schema_(CubeSchema::BenchScale()),
        world_(schema_.num_countries),
        roads_(schema_.num_road_types) {
    synth_.seed = 4242;
    synth_.base_updates_per_day = 80.0;
    synth_.period = DateRange(Date::FromYmd(2021, 1, 1),
                              Date::FromYmd(2021, 3, 31));
  }

  std::unique_ptr<TemporalIndex> BuildIndex(CubeEncodingPolicy policy) {
    TemporalIndexOptions options;
    options.schema = schema_;
    options.dir = env::JoinPath(
        dir_.path(), policy == CubeEncodingPolicy::kAdaptive ? "adaptive"
                                                             : "dense");
    options.device = DeviceModel::None();
    options.encoding = policy;
    auto index = TemporalIndex::Create(options);
    EXPECT_TRUE(index.ok());
    if (!index.ok()) return nullptr;
    UpdateGenerator gen(synth_, &world_, &roads_);
    CubeBuilder builder(schema_, &world_);
    records_.clear();
    for (Date d = synth_.period.first; d <= synth_.period.last; d = d.next()) {
      auto records = gen.GenerateDayRecords(d);
      EXPECT_TRUE(index.value()->AppendDay(d, builder.BuildCube(records)).ok());
      records_.insert(records_.end(), records.begin(), records.end());
    }
    return std::move(index).value();
  }

  TempDir dir_{"brute-force"};
  CubeSchema schema_;
  WorldMap world_;
  RoadTypeTable roads_;
  SynthOptions synth_;
  std::vector<UpdateRecord> records_;
};

TEST_F(ExecutorBruteForceTest, RandomQueriesMatchRecordScan) {
  auto index = BuildIndex(CubeEncodingPolicy::kAdaptive);
  ASSERT_NE(index, nullptr);
  QueryExecutor executor(index.get(), nullptr, &world_);
  Rng rng(99);
  const auto& countries = world_.country_ids();
  for (int trial = 0; trial < 40; ++trial) {
    AnalysisQuery q;
    // Random window inside the covered period.
    int start = static_cast<int>(rng.Uniform(90));
    int len = 1 + static_cast<int>(rng.Uniform(90 - start));
    q.range = DateRange(synth_.period.first.AddDays(start),
                        synth_.period.first.AddDays(start + len - 1));
    // Random filters.
    if (rng.Bernoulli(0.4)) {
      q.element_types = {static_cast<ElementType>(rng.Uniform(3))};
    }
    if (rng.Bernoulli(0.4)) {
      q.countries = {countries[rng.Uniform(countries.size())]};
      if (rng.Bernoulli(0.3)) {
        q.countries.push_back(countries[rng.Uniform(countries.size())]);
      }
    }
    if (rng.Bernoulli(0.3)) {
      q.road_types = {
          static_cast<RoadTypeId>(rng.Uniform(schema_.num_road_types))};
    }
    if (rng.Bernoulli(0.4)) {
      q.update_types = {static_cast<UpdateType>(rng.Uniform(4))};
    }
    // Random group-by subset.
    q.group_element_type = rng.Bernoulli(0.4);
    q.group_date = rng.Bernoulli(0.25);
    q.group_country = rng.Bernoulli(0.4);
    q.group_road_type = rng.Bernoulli(0.3);
    q.group_update_type = rng.Bernoulli(0.4);

    auto result = executor.Execute(q);
    ASSERT_TRUE(result.ok()) << q.ToString();

    std::map<GroupKey, uint64_t> expected = BruteForce(records_, q, world_);
    std::map<GroupKey, uint64_t> actual;
    for (const ResultRow& row : result.value().rows) {
      GroupKey gk{row.element_type,
                  row.has_date ? row.date.days_since_epoch()
                               : ResultRow::kNoGroup,
                  row.country, row.road_type, row.update_type};
      actual[gk] = row.count;
    }
    ASSERT_EQ(actual, expected) << "trial " << trial << ": " << q.ToString();
  }
}

// Date-grouped rows come out in the reference's key order, (element_type,
// date, country, road_type, update_type), for every grouping that
// includes the date, over both adaptive (sparse) and forced-dense cubes.
TEST_F(ExecutorBruteForceTest, DateGroupedRowsFollowReferenceOrder) {
  for (CubeEncodingPolicy policy :
       {CubeEncodingPolicy::kAdaptive, CubeEncodingPolicy::kForceDense}) {
    auto index = BuildIndex(policy);
    ASSERT_NE(index, nullptr);
    QueryExecutor executor(index.get(), nullptr, &world_);
    for (int mask = 0; mask < 16; ++mask) {
      AnalysisQuery q;
      q.range = DateRange(Date::FromYmd(2021, 1, 20),
                          Date::FromYmd(2021, 3, 10));
      q.group_date = true;
      q.group_element_type = (mask & 1) != 0;
      q.group_country = (mask & 2) != 0;
      q.group_road_type = (mask & 4) != 0;
      q.group_update_type = (mask & 8) != 0;
      // Two of the groupings also filter, so slices exclude cells.
      if (mask == 5) q.update_types = {UpdateType::kNew, UpdateType::kGeometry};
      if (mask == 10) q.element_types = {ElementType::kWay};
      auto result = executor.Execute(q);
      ASSERT_TRUE(result.ok()) << q.ToString();

      const std::map<GroupKey, uint64_t> groups =
          BruteForce(records_, q, world_);
      const std::vector<std::pair<GroupKey, uint64_t>> expected(
          groups.begin(), groups.end());
      std::vector<std::pair<GroupKey, uint64_t>> actual;
      for (const ResultRow& row : result.value().rows) {
        ASSERT_TRUE(row.has_date);
        actual.push_back({GroupKey{row.element_type,
                                   row.date.days_since_epoch(), row.country,
                                   row.road_type, row.update_type},
                          row.count});
      }
      EXPECT_EQ(actual, expected)
          << (policy == CubeEncodingPolicy::kAdaptive ? "adaptive" : "dense")
          << ": " << q.ToString();
    }
  }
}

}  // namespace
}  // namespace rased
