#include <algorithm>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cube_cache.h"
#include "geo/world_map.h"
#include "index/temporal_index.h"
#include "io/env.h"
#include "query/query_executor.h"
#include "util/random.h"

namespace rased {
namespace {

// Property tests for the query hot path: the dense aggregation kernels and
// the batched cube reads must be indistinguishable from the naive
// reference (per-cell ForEachCell folds + serial ReadCube) in every
// observable way — answers, row order, and transfer accounting — across
// randomized schemas, slices, group-bys, and covers. The suites are named
// "Hotpath*" so CI's TSan pass picks them up (the concurrency test below
// exercises the §7 contract under the race detector).

DataCube RandomCube(const CubeSchema& schema, Rng* rng, int adds = 200) {
  DataCube cube(schema);
  for (int i = 0; i < adds; ++i) {
    cube.Add(static_cast<uint32_t>(rng->Uniform(schema.num_element_types)),
             static_cast<uint32_t>(rng->Uniform(schema.num_countries)),
             static_cast<uint32_t>(rng->Uniform(schema.num_road_types)),
             static_cast<uint32_t>(rng->Uniform(schema.num_update_types)),
             rng->Uniform(25));
  }
  return cube;
}

// Every cell at a full-width count: a COO entry would cost more than the
// 8-byte cell, so the cube stores dense.
DataCube FullWidthCube(const CubeSchema& schema, Rng* rng) {
  DataCube cube(schema);
  for (size_t i = 0; i < schema.num_cells(); ++i) {
    cube.mutable_cells()[i] = rng->Next() | (uint64_t{1} << 63);
  }
  return cube;
}

// Random selection over a dimension: unconstrained half the time,
// otherwise 1..3 values that may include one out-of-range id (which the
// kernels must skip exactly like ForEachCell does).
std::vector<uint32_t> RandomSelection(uint32_t dim, Rng* rng) {
  std::vector<uint32_t> values;
  if (rng->Bernoulli(0.5)) return values;
  size_t n = 1 + rng->Uniform(3);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(static_cast<uint32_t>(rng->Uniform(dim + 1)));
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

CubeSlice RandomSlice(const CubeSchema& schema, Rng* rng) {
  CubeSlice slice;
  slice.element_types = RandomSelection(schema.num_element_types, rng);
  slice.countries = RandomSelection(schema.num_countries, rng);
  slice.road_types = RandomSelection(schema.num_road_types, rng);
  slice.update_types = RandomSelection(schema.num_update_types, rng);
  return slice;
}

TEST(HotpathKernelTest, SumSliceIntoMatchesForEachCellAcrossSchemas) {
  Rng rng(31);
  const CubeSchema schemas[] = {
      CubeSchema{2, 3, 2, 2},   // everything tiny
      CubeSchema{3, 7, 5, 4},   // odd sizes
      CubeSchema{3, 16, 8, 4},  // bench-like shape
  };
  for (const CubeSchema& schema : schemas) {
    DataCube cube = RandomCube(schema, &rng);
    for (int trial = 0; trial < 100; ++trial) {
      CubeSlice slice = RandomSlice(schema, &rng);
      GroupBySpec spec{rng.Bernoulli(0.5), rng.Bernoulli(0.5),
                       rng.Bernoulli(0.5), rng.Bernoulli(0.5)};

      // Naive reference: per-cell visit, packed row-major fold.
      std::vector<uint64_t> expected(GroupAccumulatorSize(schema, spec), 0);
      cube.ForEachCell(slice, [&](uint32_t et, uint32_t co, uint32_t rt,
                                  uint32_t ut, uint64_t count) {
        size_t slot = 0;
        if (spec.element_type) slot = slot * schema.num_element_types + et;
        if (spec.country) slot = slot * schema.num_countries + co;
        if (spec.road_type) slot = slot * schema.num_road_types + rt;
        if (spec.update_type) slot = slot * schema.num_update_types + ut;
        expected[slot] += count;
      });

      std::vector<uint64_t> actual(expected.size(), 0);
      cube.SumSliceInto(slice, spec, actual.data());
      ASSERT_EQ(actual, expected)
          << schema.ToString() << " trial " << trial;

      // The zero-copy view must agree with the owning cube.
      std::vector<uint64_t> via_view(expected.size(), 0);
      cube.View().SumSliceInto(slice, spec, via_view.data());
      ASSERT_EQ(via_view, expected);
    }
  }
}

class HotpathIndexTest : public ::testing::Test {
 protected:
  static constexpr int kDays = 45;

  void SetUp() override {
    TemporalIndexOptions options;
    options.schema = schema_;
    options.num_levels = 4;
    options.dir = env::JoinPath(dir_.path(), "idx");
    options.device = DeviceModel{500, 0, 0.25};
    auto index = TemporalIndex::Create(options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(index).value();
    // Busy days store dense, quiet ones sparse COO, so the batched reads
    // and both cache-resident forms get exercised, on hits and misses.
    Rng rng(77);
    for (int i = 0; i < kDays; ++i) {
      ASSERT_TRUE(index_
                      ->AppendDay(first_.AddDays(i),
                                  i % 2 ? RandomCube(schema_, &rng, 12)
                                        : FullWidthCube(schema_, &rng))
                      .ok());
    }
    int per_encoding[2] = {0, 0};
    CatalogSnapshot snapshot = index_->Snapshot();
    for (int level = 0; level < kNumLevels; ++level) {
      for (const CubeKey& key :
           snapshot.LatestKeys(static_cast<Level>(level), kDays)) {
        ++per_encoding[static_cast<int>(snapshot.LocOf(key)->encoding)];
      }
    }
    ASSERT_GT(per_encoding[static_cast<int>(CubeEncoding::kSparseCoo)], 0);
    ASSERT_GT(per_encoding[static_cast<int>(CubeEncoding::kDenseRaw)], 0);
  }

  CubeSchema schema_{3, 16, 8, 4};
  Date first_ = Date::FromYmd(2021, 1, 1);
  TempDir dir_{"hotpath-test"};
  std::unique_ptr<TemporalIndex> index_;
};

TEST_F(HotpathIndexTest, BatchedReadCubesMatchesSerialBitForBit) {
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    // A random cover: a contiguous daily stretch plus random weekly /
    // monthly cubes, shuffled — the shape LevelOptimizer plans produce.
    std::vector<CubeKey> keys;
    int start = static_cast<int>(rng.Uniform(kDays - 1));
    int len = 1 + static_cast<int>(rng.Uniform(
                      static_cast<uint64_t>(kDays - start)));
    for (int i = 0; i < len; ++i) {
      keys.push_back(CubeKey::Daily(first_.AddDays(start + i)));
    }
    for (const CubeKey& key :
         index_->ExistingKeys(Level::kWeekly, index_->coverage())) {
      if (rng.Bernoulli(0.5)) keys.push_back(key);
    }
    for (size_t i = keys.size(); i > 1; --i) {
      std::swap(keys[i - 1], keys[rng.Uniform(i)]);
    }

    IoStats batched_io;
    auto batch = index_->ReadCubes(keys, &batched_io);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();

    IoStats serial_io;
    for (size_t i = 0; i < keys.size(); ++i) {
      auto serial = index_->ReadCube(keys[i], &serial_io);
      ASSERT_TRUE(serial.ok());
      // Identical cube content after decoding the batch slot.
      auto decoded = batch.value().Decode(i);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ASSERT_EQ(decoded.value(), serial.value())
          << "trial " << trial << " cube " << i;
    }

    // Transfer accounting identical; device ops and time never worse.
    EXPECT_EQ(batched_io.page_reads, serial_io.page_reads);
    EXPECT_EQ(batched_io.bytes_read, serial_io.bytes_read);
    EXPECT_LE(batched_io.read_ops, serial_io.read_ops);
    EXPECT_LE(batched_io.simulated_device_micros,
              serial_io.simulated_device_micros);
  }
}

// Naive reference executor: the pre-batching hot path — serial ReadCube
// per planned cube, per-cell ForEachCell fold into a tuple-keyed map.
using GroupKey = std::tuple<int32_t, int32_t, int32_t, int32_t, int32_t>;

std::map<GroupKey, uint64_t> NaiveExecute(const TemporalIndex& index,
                                          const QueryExecutor& executor,
                                          const AnalysisQuery& q,
                                          const WorldMap& world,
                                          QueryStats* stats) {
  QueryPlan plan = executor.PlanFor(q);
  stats->cubes_total = plan.cubes.size();
  CubeSlice slice;
  for (ElementType t : q.element_types) {
    slice.element_types.push_back(static_cast<uint32_t>(t));
  }
  if (q.countries.empty()) {
    slice.countries.push_back(kZoneUnknown);
    for (ZoneId id : world.country_ids()) slice.countries.push_back(id);
  } else {
    for (ZoneId z : q.countries) slice.countries.push_back(z);
  }
  for (RoadTypeId r : q.road_types) slice.road_types.push_back(r);
  for (UpdateType u : q.update_types) {
    slice.update_types.push_back(static_cast<uint32_t>(u));
  }
  slice.Normalize();

  std::map<GroupKey, uint64_t> groups;
  for (const CubeKey& key : plan.cubes) {
    auto cube = index.ReadCube(key, &stats->io);
    EXPECT_TRUE(cube.ok());
    ++stats->cubes_from_disk;
    int32_t date_key = q.group_date ? key.range().first.days_since_epoch()
                                    : ResultRow::kNoGroup;
    cube.value().ForEachCell(
        slice, [&](uint32_t et, uint32_t co, uint32_t rt, uint32_t ut,
                   uint64_t count) {
          groups[GroupKey{
              q.group_element_type ? static_cast<int32_t>(et)
                                   : ResultRow::kNoGroup,
              date_key,
              q.group_country ? static_cast<int32_t>(co)
                              : ResultRow::kNoGroup,
              q.group_road_type ? static_cast<int32_t>(rt)
                                : ResultRow::kNoGroup,
              q.group_update_type ? static_cast<int32_t>(ut)
                                  : ResultRow::kNoGroup}] += count;
        });
  }
  return groups;
}

TEST_F(HotpathIndexTest, ExecutorMatchesNaiveReferenceOnRandomQueries) {
  WorldMap world(schema_.num_countries);
  QueryExecutor executor(index_.get(), nullptr, &world);
  // The same queries again through an LRU cache holding every planned
  // cube: hits take the resident blobs and must answer identically.
  CacheOptions cache_options;
  cache_options.policy = CachePolicy::kLru;
  cache_options.byte_budget = uint64_t{1} << 40;
  CubeCache cache(cache_options);
  QueryExecutor cached(index_.get(), &cache, &world);
  Rng rng(47);
  std::vector<AnalysisQuery> queries;
  std::vector<QueryResult> uncached;
  for (int trial = 0; trial < 40; ++trial) {
    AnalysisQuery q;
    int start = static_cast<int>(rng.Uniform(kDays));
    int len = 1 + static_cast<int>(
                      rng.Uniform(static_cast<uint64_t>(kDays - start)));
    q.range = DateRange(first_.AddDays(start), first_.AddDays(start + len - 1));
    if (rng.Bernoulli(0.4)) {
      q.element_types = {static_cast<ElementType>(rng.Uniform(3))};
    }
    if (rng.Bernoulli(0.4)) {
      const auto& countries = world.country_ids();
      q.countries = {countries[rng.Uniform(countries.size())]};
      if (rng.Bernoulli(0.4)) {
        q.countries.push_back(countries[rng.Uniform(countries.size())]);
      }
      if (rng.Bernoulli(0.3)) q.countries.push_back(q.countries[0]);  // dup
    }
    if (rng.Bernoulli(0.3)) {
      q.road_types = {
          static_cast<RoadTypeId>(rng.Uniform(schema_.num_road_types))};
    }
    if (rng.Bernoulli(0.4)) {
      q.update_types = {static_cast<UpdateType>(rng.Uniform(4))};
    }
    q.group_element_type = rng.Bernoulli(0.4);
    q.group_date = rng.Bernoulli(0.25);
    q.group_country = rng.Bernoulli(0.4);
    q.group_road_type = rng.Bernoulli(0.3);
    q.group_update_type = rng.Bernoulli(0.4);

    auto result = executor.Execute(q);
    ASSERT_TRUE(result.ok()) << q.ToString();

    QueryStats naive_stats;
    std::map<GroupKey, uint64_t> expected =
        NaiveExecute(*index_, executor, q, world, &naive_stats);

    // Rows must match the reference in content AND order (the map's
    // sorted tuple order is the dashboard's contract).
    ASSERT_EQ(result.value().rows.size(), expected.size()) << q.ToString();
    size_t i = 0;
    for (const auto& [gk, count] : expected) {
      const ResultRow& row = result.value().rows[i++];
      EXPECT_EQ(row.element_type, std::get<0>(gk)) << q.ToString();
      EXPECT_EQ(row.has_date ? row.date.days_since_epoch()
                             : ResultRow::kNoGroup,
                std::get<1>(gk));
      EXPECT_EQ(row.country, std::get<2>(gk));
      EXPECT_EQ(row.road_type, std::get<3>(gk));
      EXPECT_EQ(row.update_type, std::get<4>(gk));
      EXPECT_EQ(row.count, count) << q.ToString();
    }

    // Accounting: same plan, same transfers; batching may only reduce the
    // op count and simulated device time.
    const QueryStats& stats = result.value().stats;
    EXPECT_EQ(stats.cubes_total, naive_stats.cubes_total);
    EXPECT_EQ(stats.cubes_from_disk, naive_stats.cubes_from_disk);
    EXPECT_EQ(stats.io.page_reads, naive_stats.io.page_reads);
    EXPECT_EQ(stats.io.bytes_read, naive_stats.io.bytes_read);
    EXPECT_LE(stats.io.read_ops, naive_stats.io.read_ops);
    EXPECT_LE(stats.io.simulated_device_micros,
              naive_stats.io.simulated_device_micros);

    // Admits this query's cubes (extracted from the batch arena).
    ASSERT_TRUE(cached.Execute(q).ok()) << q.ToString();
    queries.push_back(q);
    uncached.push_back(std::move(result).value());
  }

  // Every planned cube is resident now; no query may touch the disk.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = cached.Execute(queries[i]);
    ASSERT_TRUE(result.ok()) << queries[i].ToString();
    const QueryResult& want = uncached[i];
    EXPECT_EQ(result.value().stats.io.page_reads, 0u) << queries[i].ToString();
    EXPECT_EQ(result.value().stats.cubes_from_cache,
              result.value().stats.cubes_total);
    ASSERT_EQ(result.value().rows.size(), want.rows.size());
    for (size_t r = 0; r < want.rows.size(); ++r) {
      const ResultRow& got = result.value().rows[r];
      EXPECT_EQ(got.element_type, want.rows[r].element_type);
      EXPECT_EQ(got.has_date, want.rows[r].has_date);
      if (got.has_date) {
        EXPECT_EQ(got.date, want.rows[r].date);
      }
      EXPECT_EQ(got.country, want.rows[r].country);
      EXPECT_EQ(got.road_type, want.rows[r].road_type);
      EXPECT_EQ(got.update_type, want.rows[r].update_type);
      EXPECT_EQ(got.count, want.rows[r].count) << queries[i].ToString();
    }
  }
}

TEST_F(HotpathIndexTest, ConcurrentQueriesReproduceSerialAccounting) {
  // The §7 contract: per-query IoStats must be bit-identical between a
  // serial run and an 8-way concurrent run of the same queries, batched
  // reads included. Run under TSan in CI.
  WorldMap world(schema_.num_countries);
  CacheOptions cache_options;
  cache_options.byte_budget = CacheOptions::BytesForCubes(8, schema_);
  cache_options.policy = CachePolicy::kRasedRecency;
  CubeCache cache(cache_options);
  ASSERT_TRUE(cache.Warm(index_.get()).ok());
  QueryExecutor executor(index_.get(), &cache, &world);

  std::vector<AnalysisQuery> queries;
  for (int i = 0; i < 8; ++i) {
    AnalysisQuery q;
    q.range = DateRange(first_.AddDays(i), first_.AddDays(i + 30));
    q.group_country = (i % 2) == 0;
    q.group_date = (i % 3) == 0;
    q.group_update_type = (i % 4) == 0;
    queries.push_back(q);
  }

  std::vector<QueryResult> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = executor.Execute(queries[i]);
    ASSERT_TRUE(result.ok());
    serial[i] = std::move(result).value();
  }

  std::vector<QueryResult> concurrent(queries.size());
  std::vector<std::thread> threads;
  threads.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    threads.emplace_back([&, i] {
      auto result = executor.Execute(queries[i]);
      ASSERT_TRUE(result.ok());
      concurrent[i] = std::move(result).value();
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(concurrent[i].rows.size(), serial[i].rows.size()) << i;
    for (size_t r = 0; r < serial[i].rows.size(); ++r) {
      EXPECT_EQ(concurrent[i].rows[r].count, serial[i].rows[r].count);
      EXPECT_EQ(concurrent[i].rows[r].country, serial[i].rows[r].country);
    }
    EXPECT_TRUE(concurrent[i].stats.io == serial[i].stats.io) << i;
    EXPECT_EQ(concurrent[i].stats.cubes_from_cache,
              serial[i].stats.cubes_from_cache);
    EXPECT_EQ(concurrent[i].stats.cubes_from_disk,
              serial[i].stats.cubes_from_disk);
  }
}

}  // namespace
}  // namespace rased
