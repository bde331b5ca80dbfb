#include "index/temporal_index.h"

#include <gtest/gtest.h>

#include "io/env.h"
#include "util/random.h"
#include "util/str_util.h"

namespace rased {
namespace {

CubeSchema TinySchema() { return CubeSchema{3, 8, 4, 4}; }

DataCube CubeWithTotal(const CubeSchema& schema, uint64_t value) {
  DataCube cube(schema);
  cube.Add(0, 0, 0, 0, value);
  return cube;
}

class TemporalIndexTest : public ::testing::Test {
 protected:
  TemporalIndexOptions Options(int levels = 4) {
    TemporalIndexOptions options;
    options.schema = TinySchema();
    options.num_levels = levels;
    options.dir = env::JoinPath(dir_.path(), "index-" +
                                                 std::to_string(counter_++));
    options.device = DeviceModel::None();
    return options;
  }

  TempDir dir_{"tindex-test"};
  int counter_ = 0;
};

TEST_F(TemporalIndexTest, CreateAndAppendOneDay) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  Date day = Date::FromYmd(2021, 3, 1);
  ASSERT_TRUE(index.value()->AppendDay(day, CubeWithTotal(TinySchema(), 5))
                  .ok());
  EXPECT_TRUE(index.value()->Contains(CubeKey::Daily(day)));
  auto cube = index.value()->ReadCube(CubeKey::Daily(day));
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube.value().Total(), 5u);
  EXPECT_EQ(index.value()->coverage(), DateRange(day, day));
}

TEST_F(TemporalIndexTest, RejectsOutOfOrderDays) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date day = Date::FromYmd(2021, 3, 1);
  ASSERT_TRUE(index.value()->AppendDay(day, DataCube(TinySchema())).ok());
  EXPECT_TRUE(index.value()
                  ->AppendDay(day.AddDays(2), DataCube(TinySchema()))
                  .IsInvalidArgument());
  EXPECT_TRUE(
      index.value()->AppendDay(day, DataCube(TinySchema())).IsInvalidArgument());
}

TEST_F(TemporalIndexTest, RejectsSchemaMismatch) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  DataCube wrong(CubeSchema{3, 9, 4, 4});
  EXPECT_TRUE(index.value()
                  ->AppendDay(Date::FromYmd(2021, 1, 1), wrong)
                  .IsInvalidArgument());
}

TEST_F(TemporalIndexTest, WeeklyRollupAtDay7) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 3, 1);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(start.AddDays(i),
                                CubeWithTotal(TinySchema(), 10))
                    .ok());
  }
  CubeKey weekly = CubeKey::Weekly(start);
  ASSERT_TRUE(index.value()->Contains(weekly));
  auto cube = index.value()->ReadCube(weekly);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube.value().Total(), 70u);
}

TEST_F(TemporalIndexTest, NoWeeklyWhenFlat) {
  auto index = TemporalIndex::Create(Options(/*levels=*/1));
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 3, 1);
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(start.AddDays(i), DataCube(TinySchema()))
                    .ok());
  }
  EXPECT_FALSE(index.value()->Contains(CubeKey::Weekly(start)));
}

TEST_F(TemporalIndexTest, FullMonthBuildsAllLevels) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 1, 1);
  for (int i = 0; i < 31; ++i) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(start.AddDays(i),
                                CubeWithTotal(TinySchema(), 1))
                    .ok());
  }
  CubeKey monthly = CubeKey::Monthly(start);
  ASSERT_TRUE(index.value()->Contains(monthly));
  auto cube = index.value()->ReadCube(monthly);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube.value().Total(), 31u);

  IndexStorageStats stats = index.value()->StorageStats();
  EXPECT_EQ(stats.cubes_per_level[0], 31u);
  EXPECT_EQ(stats.cubes_per_level[1], 4u);
  EXPECT_EQ(stats.cubes_per_level[2], 1u);
  EXPECT_EQ(stats.cubes_per_level[3], 0u);
  EXPECT_EQ(stats.total_cubes, 36u);
  EXPECT_GT(stats.file_bytes, 0u);
}

TEST_F(TemporalIndexTest, YearRollup) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 1, 1);
  Date end = Date::FromYmd(2021, 12, 31);
  for (Date d = start; d <= end; d = d.next()) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(d, CubeWithTotal(TinySchema(), 2))
                    .ok());
  }
  CubeKey yearly = CubeKey::Yearly(start);
  ASSERT_TRUE(index.value()->Contains(yearly));
  auto cube = index.value()->ReadCube(yearly);
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube.value().Total(), 2u * 365);

  IndexStorageStats stats = index.value()->StorageStats();
  EXPECT_EQ(stats.cubes_per_level[0], 365u);
  EXPECT_EQ(stats.cubes_per_level[1], 48u);
  EXPECT_EQ(stats.cubes_per_level[2], 12u);
  EXPECT_EQ(stats.cubes_per_level[3], 1u);
}

TEST_F(TemporalIndexTest, RollupIoCountsMatchPaper) {
  // Section VI-A: one write for a plain day; up to 8 I/Os at week end,
  // and 13 at year end.
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Pager* pager = index.value()->pager();
  Date start = Date::FromYmd(2021, 1, 1);
  Date d = start;
  // Days 1-6: one page allocation + one write each the first time; the
  // first write allocates, so expect 2 page writes for a fresh day (alloc
  // zero-fill + payload write) and no reads.
  for (int i = 0; i < 6; ++i) {
    pager->ResetStats();
    ASSERT_TRUE(index.value()
                    ->AppendDay(d, CubeWithTotal(TinySchema(), 1))
                    .ok());
    EXPECT_EQ(pager->stats().page_reads, 0u) << "day " << i;
    d = d.next();
  }
  // Day 7 (week end): reads the six previous dailies.
  pager->ResetStats();
  ASSERT_TRUE(index.value()->AppendDay(d, CubeWithTotal(TinySchema(), 1)).ok());
  EXPECT_EQ(pager->stats().page_reads, 6u);
  d = d.next();

  // Finish January; day 31 is month end with 3 straggler days (29,30,31):
  // monthly reads 4 weeklies minus the in-memory one... day 31 is not a
  // week end, so the month rollup reads 4 weekly + 2 straggler dailies.
  while (d.day() != 31) {
    ASSERT_TRUE(
        index.value()->AppendDay(d, CubeWithTotal(TinySchema(), 1)).ok());
    d = d.next();
  }
  pager->ResetStats();
  ASSERT_TRUE(index.value()->AppendDay(d, CubeWithTotal(TinySchema(), 1)).ok());
  EXPECT_EQ(pager->stats().page_reads, 6u);  // 4 weekly + 2 daily stragglers
}

TEST_F(TemporalIndexTest, PersistsAcrossReopen) {
  TemporalIndexOptions options = Options();
  Date day = Date::FromYmd(2021, 6, 1);
  {
    auto index = TemporalIndex::Create(options);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index.value()
                    ->AppendDay(day, CubeWithTotal(TinySchema(), 42))
                    .ok());
  }
  auto reopened = TemporalIndex::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->coverage(), DateRange(day, day));
  auto cube = reopened.value()->ReadCube(CubeKey::Daily(day));
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube.value().Total(), 42u);
  // Appending continues where it left off.
  ASSERT_TRUE(reopened.value()
                  ->AppendDay(day.next(), DataCube(TinySchema()))
                  .ok());
}

TEST_F(TemporalIndexTest, OpenRejectsMismatchedOptions) {
  TemporalIndexOptions options = Options();
  { ASSERT_TRUE(TemporalIndex::Create(options).ok()); }
  TemporalIndexOptions wrong_levels = options;
  wrong_levels.num_levels = 2;
  EXPECT_FALSE(TemporalIndex::Open(wrong_levels).ok());
  TemporalIndexOptions wrong_schema = options;
  wrong_schema.schema.num_countries = 99;
  EXPECT_FALSE(TemporalIndex::Open(wrong_schema).ok());
}

// Every catalog cube line has 7 fields (level, day, first page, pages,
// encoding, blob bytes); a seed-format 4-field line and an unknown
// encoding are both Corruption.
TEST_F(TemporalIndexTest, OpenRejectsSeedFormatAndUnknownEncodingLines) {
  TemporalIndexOptions options = Options();
  Date day = Date::FromYmd(2021, 6, 1);
  {
    auto index = TemporalIndex::Create(options);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index.value()
                    ->AppendDay(day, CubeWithTotal(TinySchema(), 5))
                    .ok());
  }
  const std::string path = env::JoinPath(options.dir, "catalog");
  const std::string catalog = env::ReadFile(path).value();
  const size_t begin = catalog.find("\ncube ") + 1;
  const size_t end = catalog.find('\n', begin);
  ASSERT_NE(begin, 0u);
  std::vector<std::string> f = Split(catalog.substr(begin, end - begin), ' ');
  ASSERT_EQ(f.size(), 7u);
  auto open_with_line = [&](const std::string& line) {
    EXPECT_TRUE(env::WriteFile(path, catalog.substr(0, begin) + line +
                                         catalog.substr(end))
                    .ok());
    return TemporalIndex::Open(options).status();
  };
  Status seed = open_with_line(f[0] + " " + f[1] + " " + f[2] + " " + f[3]);
  EXPECT_TRUE(seed.IsCorruption()) << seed.ToString();
  f[5] = "2";
  std::string line = f[0];
  for (size_t i = 1; i < f.size(); ++i) line += " " + f[i];
  Status unknown = open_with_line(line);
  EXPECT_TRUE(unknown.IsCorruption()) << unknown.ToString();
  // The untouched catalog still opens.
  ASSERT_TRUE(env::WriteFile(path, catalog).ok());
  EXPECT_TRUE(TemporalIndex::Open(options).ok());
}

TEST_F(TemporalIndexTest, CreateRejectsExisting) {
  TemporalIndexOptions options = Options();
  ASSERT_TRUE(TemporalIndex::Create(options).ok());
  EXPECT_TRUE(TemporalIndex::Create(options).status().IsAlreadyExists());
}

TEST_F(TemporalIndexTest, ReadMissingCube) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(index.value()
                  ->ReadCube(CubeKey::Daily(Date::FromYmd(2021, 1, 1)))
                  .status()
                  .IsNotFound());
}

TEST_F(TemporalIndexTest, ExistingKeysAndLatestKeys) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 2, 1);
  for (int i = 0; i < 28; ++i) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(start.AddDays(i), DataCube(TinySchema()))
                    .ok());
  }
  DateRange all(start, start.AddDays(27));
  EXPECT_EQ(index.value()->ExistingKeys(Level::kDaily, all).size(), 28u);
  EXPECT_EQ(index.value()->ExistingKeys(Level::kWeekly, all).size(), 4u);
  EXPECT_EQ(index.value()->ExistingKeys(Level::kMonthly, all).size(), 1u);

  auto latest = index.value()->LatestKeys(Level::kDaily, 5);
  ASSERT_EQ(latest.size(), 5u);
  EXPECT_EQ(latest.back().start, start.AddDays(27));
  EXPECT_EQ(latest.front().start, start.AddDays(23));
}

TEST_F(TemporalIndexTest, RebuildMonthReplacesProvisionalData) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 4, 1);
  // Daily (provisional) data: everything in update-type slot 2.
  for (int i = 0; i < 30; ++i) {
    DataCube cube(TinySchema());
    cube.Add(0, 1, 0, 2, 10);
    ASSERT_TRUE(index.value()->AppendDay(start.AddDays(i), cube).ok());
  }
  // Monthly rebuild: reclassified into slots 1..3.
  std::vector<DataCube> rebuilt;
  for (int i = 0; i < 30; ++i) {
    DataCube cube(TinySchema());
    cube.Add(0, 1, 0, 1, 2);
    cube.Add(0, 1, 0, 2, 5);
    cube.Add(0, 1, 0, 3, 3);
    rebuilt.push_back(std::move(cube));
  }
  ASSERT_TRUE(index.value()->RebuildMonth(start, rebuilt).ok());

  auto daily = index.value()->ReadCube(CubeKey::Daily(start.AddDays(10)));
  ASSERT_TRUE(daily.ok());
  EXPECT_EQ(daily.value().Get(0, 1, 0, 1), 2u);
  EXPECT_EQ(daily.value().Get(0, 1, 0, 2), 5u);

  auto monthly = index.value()->ReadCube(CubeKey::Monthly(start));
  ASSERT_TRUE(monthly.ok());
  EXPECT_EQ(monthly.value().Total(), 30u * 10);
  EXPECT_EQ(monthly.value().Get(0, 1, 0, 3), 30u * 3);

  auto weekly = index.value()->ReadCube(CubeKey::Weekly(start));
  ASSERT_TRUE(weekly.ok());
  EXPECT_EQ(weekly.value().Total(), 7u * 10);
}

TEST_F(TemporalIndexTest, RebuildMonthValidatesInput) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date april = Date::FromYmd(2021, 4, 1);
  std::vector<DataCube> cubes(30, DataCube(TinySchema()));
  // Month not covered yet.
  EXPECT_TRUE(index.value()->RebuildMonth(april, cubes).IsInvalidArgument());
  // Not a month start.
  EXPECT_TRUE(index.value()
                  ->RebuildMonth(Date::FromYmd(2021, 4, 2), cubes)
                  .IsInvalidArgument());
  // Wrong cube count.
  for (Date d = april; d <= april.month_end(); d = d.next()) {
    ASSERT_TRUE(index.value()->AppendDay(d, DataCube(TinySchema())).ok());
  }
  std::vector<DataCube> too_few(29, DataCube(TinySchema()));
  EXPECT_TRUE(index.value()->RebuildMonth(april, too_few).IsInvalidArgument());
}

TEST_F(TemporalIndexTest, RebuildMonthRefreshesClosedYear) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 1, 1);
  for (Date d = start; d <= Date::FromYmd(2021, 12, 31); d = d.next()) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(d, CubeWithTotal(TinySchema(), 1))
                    .ok());
  }
  std::vector<DataCube> june(30, CubeWithTotal(TinySchema(), 100));
  ASSERT_TRUE(index.value()->RebuildMonth(Date::FromYmd(2021, 6, 1), june).ok());
  auto yearly = index.value()->ReadCube(CubeKey::Yearly(start));
  ASSERT_TRUE(yearly.ok());
  EXPECT_EQ(yearly.value().Total(), 365u - 30 + 30 * 100);
}

TEST_F(TemporalIndexTest, LeftoverCatalogTempFileIsHarmless) {
  // The catalog is saved via write-to-temp + atomic rename; a crash can
  // leave a stale catalog.tmp behind, which must not confuse Open.
  TemporalIndexOptions options = Options();
  Date day = Date::FromYmd(2021, 6, 1);
  {
    auto index = TemporalIndex::Create(options);
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE(index.value()
                    ->AppendDay(day, CubeWithTotal(TinySchema(), 9))
                    .ok());
  }
  ASSERT_TRUE(env::WriteFile(env::JoinPath(options.dir, "catalog.tmp"),
                             "garbage from a crashed save")
                  .ok());
  auto reopened = TemporalIndex::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->ReadCube(CubeKey::Daily(day)).value().Total(),
            9u);
}

TEST_F(TemporalIndexTest, ReadCubesReturnsBatchInKeyOrder) {
  TemporalIndexOptions options = Options();
  options.device = DeviceModel{1000, 0, 0.0};
  auto index = TemporalIndex::Create(options);
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 3, 1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        index.value()
            ->AppendDay(start.AddDays(i),
                        CubeWithTotal(TinySchema(), static_cast<uint64_t>(i + 1)))
            .ok());
  }

  // Request out of chronological order; the batch preserves input order.
  std::vector<CubeKey> keys{CubeKey::Daily(start.AddDays(4)),
                            CubeKey::Daily(start.AddDays(0)),
                            CubeKey::Daily(start.AddDays(5)),
                            CubeKey::Daily(start.AddDays(6))};
  IoStats io;
  auto batch = index.value()->ReadCubes(keys, &io);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch.value().size(), keys.size());
  EXPECT_EQ(batch.value().Decode(0).value().Total(), 5u);
  EXPECT_EQ(batch.value().Decode(1).value().Total(), 1u);
  EXPECT_EQ(batch.value().Decode(2).value().Total(), 6u);
  EXPECT_EQ(batch.value().Decode(3).value().Total(), 7u);

  // Transfers match the serial path; days 4,5,6 sit on adjacent pages so
  // coalescing shows fewer device ops than pages.
  EXPECT_EQ(io.page_reads, 4u);
  EXPECT_LT(io.read_ops, io.page_reads);
}

TEST_F(TemporalIndexTest, ReadCubesMatchesSerialReadCube) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 3, 1);
  Rng rng(23);
  for (int i = 0; i < 14; ++i) {
    DataCube cube(TinySchema());
    for (int j = 0; j < 30; ++j) {
      cube.Add(rng.Uniform(3), rng.Uniform(8), rng.Uniform(4),
               rng.Uniform(4), rng.Uniform(9));
    }
    ASSERT_TRUE(index.value()->AppendDay(start.AddDays(i), cube).ok());
  }

  std::vector<CubeKey> keys;
  for (int i = 0; i < 14; i += 2) {
    keys.push_back(CubeKey::Daily(start.AddDays(i)));
  }
  keys.push_back(CubeKey::Weekly(start));
  auto batch = index.value()->ReadCubes(keys);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    auto serial = index.value()->ReadCube(keys[i]);
    ASSERT_TRUE(serial.ok());
    auto decoded = batch.value().Decode(i);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), serial.value()) << i;
  }
}

TEST_F(TemporalIndexTest, ReadCubesFailsBeforeIoOnMissingKey) {
  TemporalIndexOptions options = Options();
  options.device = DeviceModel{1000, 0, 0.0};
  auto index = TemporalIndex::Create(options);
  ASSERT_TRUE(index.ok());
  Date day = Date::FromYmd(2021, 3, 1);
  ASSERT_TRUE(
      index.value()->AppendDay(day, CubeWithTotal(TinySchema(), 1)).ok());

  std::vector<CubeKey> keys{CubeKey::Daily(day),
                            CubeKey::Daily(day.AddDays(30))};
  IoStats io;
  auto batch = index.value()->ReadCubes(keys, &io);
  EXPECT_TRUE(batch.status().IsNotFound());
  // Missing keys are resolved before any device time is charged.
  EXPECT_EQ(io, IoStats{});
}

TEST_F(TemporalIndexTest, ReadCubesEmptyBatch) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  auto batch = index.value()->ReadCubes({});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 0u);
}

TEST_F(TemporalIndexTest, IndexStartingMidMonthStillRollsUp) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  // Start on the 20th; the month-end rollup must cope with missing
  // children.
  Date start = Date::FromYmd(2021, 5, 20);
  for (Date d = start; d <= Date::FromYmd(2021, 5, 31); d = d.next()) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(d, CubeWithTotal(TinySchema(), 1))
                    .ok());
  }
  auto monthly = index.value()->ReadCube(CubeKey::Monthly(start));
  ASSERT_TRUE(monthly.ok());
  EXPECT_EQ(monthly.value().Total(), 12u);  // 20th..31st
}

// ---- MVCC: epoch-versioned catalog publication (DESIGN.md section 10) ----

TEST_F(TemporalIndexTest, EpochAdvancesOncePerPublication) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value()->epoch(), 1u);
  Date start = Date::FromYmd(2021, 4, 1);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(start.AddDays(i), CubeWithTotal(TinySchema(), 1))
                    .ok());
    EXPECT_EQ(index.value()->epoch(), 2u + static_cast<uint64_t>(i));
  }
  // A month rebuild — many cubes replaced — is still one publication.
  std::vector<DataCube> rebuilt(30, CubeWithTotal(TinySchema(), 2));
  ASSERT_TRUE(index.value()->RebuildMonth(start, rebuilt).ok());
  EXPECT_EQ(index.value()->epoch(), 32u);
}

TEST_F(TemporalIndexTest, PinnedSnapshotIsImmutableAcrossPublications) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 3, 1);
  ASSERT_TRUE(
      index.value()->AppendDay(start, CubeWithTotal(TinySchema(), 5)).ok());

  CatalogSnapshot pinned = index.value()->Snapshot();
  const uint64_t pinned_epoch = pinned.epoch();
  const std::optional<PageId> pinned_page = pinned.PageOf(CubeKey::Daily(start));
  ASSERT_TRUE(pinned_page.has_value());

  // Six more appends complete the week: new daily keys plus a weekly
  // rollup, each its own publication.
  for (int i = 1; i < 7; ++i) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(start.AddDays(i), CubeWithTotal(TinySchema(), 5))
                    .ok());
  }

  // The pinned version is frozen: same epoch, same coverage, same page
  // mapping, and none of the later days or rollups exist in it.
  EXPECT_EQ(pinned.epoch(), pinned_epoch);
  EXPECT_EQ(pinned.coverage(), DateRange(start, start));
  EXPECT_EQ(pinned.PageOf(CubeKey::Daily(start)), pinned_page);
  EXPECT_FALSE(pinned.Contains(CubeKey::Daily(start.AddDays(1))));
  EXPECT_FALSE(pinned.Contains(CubeKey::Weekly(start)));
  auto via_pinned = index.value()->ReadCube(pinned, CubeKey::Daily(start));
  ASSERT_TRUE(via_pinned.ok());
  EXPECT_EQ(via_pinned.value().Total(), 5u);

  // A fresh snapshot sees everything at once.
  CatalogSnapshot fresh = index.value()->Snapshot();
  EXPECT_EQ(fresh.epoch(), pinned_epoch + 6);
  EXPECT_EQ(fresh.coverage(), DateRange(start, start.AddDays(6)));
  EXPECT_TRUE(fresh.Contains(CubeKey::Weekly(start)));
}

TEST_F(TemporalIndexTest, RetiredVersionsDrainOnlyAfterReadersRelease) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 3, 1);
  ASSERT_TRUE(
      index.value()->AppendDay(start, CubeWithTotal(TinySchema(), 1)).ok());

  // A pinned reader holds the retirement queue's front: every later
  // publication stacks another retired version behind it.
  {
    CatalogSnapshot pinned = index.value()->Snapshot();
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(index.value()
                      ->AppendDay(start.AddDays(i), CubeWithTotal(TinySchema(), 1))
                      .ok());
    }
    EXPECT_GE(index.value()->retired_versions(), 3u);
    EXPECT_GT(pinned.epoch(), 0u);  // keep the pin alive to here
  }

  // Reader drained: the next publication reclaims the whole backlog.
  // (Reclamation runs inside publication, so at rest the count may
  // legitimately hold the most recent retirement.)
  ASSERT_TRUE(index.value()
                  ->AppendDay(start.AddDays(4), CubeWithTotal(TinySchema(), 1))
                  .ok());
  EXPECT_LE(index.value()->retired_versions(), 1u);
}

TEST_F(TemporalIndexTest, RebuildMonthReusesReclaimedPages) {
  auto index = TemporalIndex::Create(Options());
  ASSERT_TRUE(index.ok());
  Date start = Date::FromYmd(2021, 4, 1);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(index.value()
                    ->AppendDay(start.AddDays(i), CubeWithTotal(TinySchema(), 1))
                    .ok());
  }
  std::vector<DataCube> rebuilt(30, CubeWithTotal(TinySchema(), 2));

  // Rebuild #1 stages a full replacement month on fresh pages and
  // retires the old ones. Rebuild #2's publication reclaims them into
  // the pager's free pool; rebuild #3 then stages entirely from the
  // pool, so the file stops growing.
  ASSERT_TRUE(index.value()->RebuildMonth(start, rebuilt).ok());
  ASSERT_TRUE(index.value()->RebuildMonth(start, rebuilt).ok());
  const uint64_t pages_after_two = index.value()->pager()->num_pages();
  ASSERT_TRUE(index.value()->RebuildMonth(start, rebuilt).ok());
  EXPECT_EQ(index.value()->pager()->num_pages(), pages_after_two);

  // The rebuilt data is still correct after all the page recycling.
  auto monthly = index.value()->ReadCube(CubeKey::Monthly(start));
  ASSERT_TRUE(monthly.ok());
  EXPECT_EQ(monthly.value().Total(), 60u);
}

}  // namespace
}  // namespace rased
