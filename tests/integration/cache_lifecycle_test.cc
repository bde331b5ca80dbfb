// The recency cache's one rule: once warmed, at every published epoch the
// cache holds exactly what WarmCache on a fresh open of the same directory
// would pick. Day appends and month-end rebuilds refresh it in place, so
// new days are resident as soon as they are queryable and entries the
// publication did not replace keep their blobs.

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rased.h"
#include "io/env.h"
#include "synth/update_generator.h"

namespace rased {
namespace {

const Date kFirst = Date::FromYmd(2020, 1, 1);
const Date kWarmedThrough = Date::FromYmd(2020, 12, 20);
const Date kDecember = Date::FromYmd(2020, 12, 1);
const Date kLast = Date::FromYmd(2021, 1, 3);

class CacheLifecycleTest : public ::testing::Test {
 protected:
  RasedOptions Options(const std::string& name, uint64_t budget) const {
    RasedOptions options;
    options.dir = env::JoinPath(dir_.path(), name);
    options.schema = CubeSchema::BenchScale();
    options.device = DeviceModel::None();
    if (budget != 0) options.cache.byte_budget = budget;
    return options;
  }

  /// A new instance holding 2020-01-01 .. kWarmedThrough (every level,
  /// the 2020 yearly cube still to come), warmed. `budget` 0 keeps the
  /// default 2 GiB.
  std::unique_ptr<Rased> CreateWarmed(const std::string& name,
                                      uint64_t budget) {
    auto rased = Rased::Create(Options(name, budget));
    EXPECT_TRUE(rased.ok()) << rased.status().ToString();
    if (!rased.ok()) return nullptr;
    SynthOptions synth;
    synth.seed = 25;
    synth.base_updates_per_day = 40.0;
    synth.period = DateRange(kFirst, kLast);
    gen_ = std::make_unique<UpdateGenerator>(
        synth, &rased.value()->world(), rased.value()->road_types());
    gen_->activity().InitRoadNetworkSizes(rased.value()->mutable_world());
    if (!IngestDays(rased.value().get(), kFirst, kWarmedThrough)) {
      return nullptr;
    }
    EXPECT_TRUE(rased.value()->WarmCache().ok());
    return std::move(rased).value();
  }

  bool IngestDays(Rased* rased, Date first, Date last) {
    for (Date d = first; d <= last; d = d.next()) {
      Status s = rased->IngestDayRecords(d, gen_->GenerateDayRecords(d));
      EXPECT_TRUE(s.ok()) << d.ToString() << ": " << s.ToString();
      if (!s.ok()) return false;
    }
    return true;
  }

  Status ApplyDecember(Rased* rased) {
    MonthArtifacts month = gen_->GenerateMonthArtifacts(kDecember);
    return rased->ApplyMonthlyArtifacts(kDecember, month.history_xml,
                                        month.changesets_xml);
  }

  /// Every catalog key the cache holds at its current page, as
  /// "key@page", in catalog order.
  static std::vector<std::string> Resident(const Rased& rased) {
    std::vector<std::string> resident;
    CatalogSnapshot snapshot = rased.index()->Snapshot();
    for (int level = 0; level < kNumLevels; ++level) {
      for (const CubeKey& key :
           snapshot.LatestKeys(static_cast<Level>(level),
                               std::numeric_limits<size_t>::max())) {
        const PageId page = snapshot.PageOf(key).value();
        if (rased.cache()->Contains(key, page)) {
          resident.push_back(key.ToString() + "@" + std::to_string(page));
        }
      }
    }
    return resident;
  }

  static bool Cached(const Rased& rased, const CubeKey& key) {
    const PageId page = rased.index()->Snapshot().PageOf(key).value();
    return rased.cache()->Contains(key, page);
  }

  /// Warms, ingests across the December month end (the rebuild re-stages
  /// December's days, weeks, month and the 2020 yearly cube) and three
  /// January days, syncs, and compares the live cache against a reopened
  /// copy's fresh warm: same (key, page) set, same charged bytes.
  void ExpectLiveCacheMatchesFreshOpen(const std::string& name,
                                       uint64_t budget) {
    std::vector<std::string> live;
    uint64_t live_bytes = 0;
    {
      auto rased = CreateWarmed(name, budget);
      ASSERT_NE(rased, nullptr);
      ASSERT_TRUE(IngestDays(rased.get(), kWarmedThrough.next(),
                             kDecember.month_end()));
      ASSERT_TRUE(ApplyDecember(rased.get()).ok());
      ASSERT_TRUE(IngestDays(rased.get(), kDecember.month_end().next(),
                             kLast));
      ASSERT_TRUE(rased->Sync().ok());
      live = Resident(*rased);
      live_bytes = rased->cache()->bytes_used();
      // No entry lies outside the current catalog.
      ASSERT_EQ(live.size(), rased->cache()->size());
      EXPECT_TRUE(Cached(*rased, CubeKey::Daily(kLast)));
      // The rebuilt yearly cube fits theta's share of the default budget.
      if (budget == 0) {
        EXPECT_TRUE(Cached(*rased, CubeKey::Yearly(kDecember)));
      }
    }
    auto reopened = Rased::Open(Options(name, budget));
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE(reopened.value()->WarmCache().ok());
    EXPECT_EQ(live, Resident(*reopened.value()));
    EXPECT_EQ(reopened.value()->cache()->size(), live.size());
    EXPECT_EQ(live_bytes, reopened.value()->cache()->bytes_used());
  }

  TempDir dir_{"cache-lifecycle-test"};
  std::unique_ptr<UpdateGenerator> gen_;
};

TEST_F(CacheLifecycleTest, LiveCacheMatchesFreshOpenAtDefaultBudget) {
  ExpectLiveCacheMatchesFreshOpen("default", 0);
}

// 64 KiB holds about a third of the index's 200 KB of entries, so only
// the newest part of the daily level: every append must push the oldest
// resident day out.
TEST_F(CacheLifecycleTest, LiveCacheMatchesFreshOpenWhenOldestDaysLeave) {
  const uint64_t budget = 64 << 10;
  {
    auto rased = CreateWarmed("probe", budget);
    ASSERT_NE(rased, nullptr);
    ASSERT_FALSE(Cached(*rased, CubeKey::Daily(kFirst)));
    ASSERT_TRUE(Cached(*rased, CubeKey::Daily(kWarmedThrough)));
  }
  ExpectLiveCacheMatchesFreshOpen("tight", budget);
}

TEST_F(CacheLifecycleTest, NewDayIsServedFromCacheRightAfterIngest) {
  auto rased = CreateWarmed("new-day", 0);
  ASSERT_NE(rased, nullptr);
  const Date day = kWarmedThrough.next();
  ASSERT_TRUE(IngestDays(rased.get(), day, day));
  AnalysisQuery query;
  query.range = DateRange(day, day);
  query.group_country = true;
  auto result = rased->Query(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().stats.cubes_total, 0u);
  EXPECT_EQ(result.value().stats.cubes_from_cache,
            result.value().stats.cubes_total);
}

// A month-end rebuild replaces only its month's cubes and their
// ancestors: every other entry keeps its blob across the refresh, so
// readers never meet a cold cache.
TEST_F(CacheLifecycleTest, RebuildKeepsEntriesItDidNotReplace) {
  auto rased = CreateWarmed("rebuild", 0);
  ASSERT_NE(rased, nullptr);
  ASSERT_TRUE(IngestDays(rased.get(), kWarmedThrough.next(), kLast));
  const CubeKey outside_year = CubeKey::Daily(Date::FromYmd(2021, 1, 2));
  const CubeKey untouched = CubeKey::Monthly(Date::FromYmd(2020, 11, 1));
  const CubeKey replaced = CubeKey::Monthly(kDecember);
  auto blob = [&](const CubeKey& key) {
    const PageId page = rased->index()->Snapshot().PageOf(key).value();
    return rased->cache()->FindEncoded(key, page);
  };
  const auto outside_before = blob(outside_year);
  const auto untouched_before = blob(untouched);
  const auto replaced_before = blob(replaced);
  ASSERT_NE(outside_before, nullptr);
  ASSERT_NE(untouched_before, nullptr);
  ASSERT_NE(replaced_before, nullptr);

  ASSERT_TRUE(ApplyDecember(rased.get()).ok());
  EXPECT_EQ(blob(outside_year), outside_before);
  EXPECT_EQ(blob(untouched), untouched_before);
  // The replaced cube is resident again, as its new blob.
  const auto replaced_after = blob(replaced);
  ASSERT_NE(replaced_after, nullptr);
  EXPECT_NE(replaced_after, replaced_before);
}

// Under LRU the refresh reads nothing but drops every entry whose key a
// publication re-staged. The pager recycles retired pages, so rebuilding
// a 30-day month twice lands its middle day back on its first page; a
// cached blob from before the first rebuild must not answer after the
// second, which rebuilt the month from an empty history.
TEST_F(CacheLifecycleTest, LruNeverServesABlobARebuildReplaced) {
  RasedOptions options = Options("lru", 0);
  options.cache.policy = CachePolicy::kLru;
  auto created = Rased::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Rased> rased = std::move(created).value();
  const Date april = Date::FromYmd(2021, 4, 1);
  SynthOptions synth;
  synth.seed = 3;
  synth.base_updates_per_day = 40.0;
  synth.period = DateRange(april, april.month_end());
  gen_ = std::make_unique<UpdateGenerator>(synth, &rased->world(),
                                           rased->road_types());
  ASSERT_TRUE(IngestDays(rased.get(), april, april.month_end()));

  // Cache every day's cube by querying each day.
  std::vector<AnalysisQuery> days;
  for (Date d = april; d <= april.month_end(); d = d.next()) {
    AnalysisQuery query;
    query.range = DateRange(d, d);
    days.push_back(query);
    ASSERT_TRUE(rased->Query(query).ok());
  }
  MonthArtifacts month = gen_->GenerateMonthArtifacts(april);
  ASSERT_TRUE(rased->ApplyMonthlyArtifacts(april, month.history_xml,
                                           month.changesets_xml)
                  .ok());
  const std::string empty =
      "<?xml version=\"1.0\"?><osm version=\"0.6\"></osm>";
  ASSERT_TRUE(rased->ApplyMonthlyArtifacts(april, empty, empty).ok());

  for (const AnalysisQuery& query : days) {
    auto result = rased->Query(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().rows.empty())
        << query.range.first.ToString() << " still counts "
        << result.value().rows[0].count;
  }
}

}  // namespace
}  // namespace rased
