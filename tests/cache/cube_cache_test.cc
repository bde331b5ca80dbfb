#include "cache/cube_cache.h"

#include <cstdlib>
#include <limits>
#include <optional>

#include <gtest/gtest.h>

#include "cube/cube_codec.h"
#include "io/env.h"
#include "obs/heap_stats.h"
#include "util/random.h"

namespace rased {
namespace {

CubeSchema TinySchema() { return CubeSchema{3, 8, 4, 4}; }

/// A cube's blob as the cache would hold it.
std::shared_ptr<const EncodedCube> Blob(
    const DataCube& cube,
    CubeEncodingPolicy policy = CubeEncodingPolicy::kAdaptive) {
  return std::make_shared<const EncodedCube>(EncodedCube::Encode(cube, policy));
}

/// Exact budget charge of one cube's entry.
uint64_t Charge(const DataCube& cube) {
  return CubeCache::EntryBytes(Blob(cube)->body_bytes());
}

class CubeCacheTest : public ::testing::Test {
 protected:
  // Builds an index covering `days` days from 2021-01-01. Each daily cube
  // holds a single cell, so every cube stores sparse and tiny — the
  // resident entries the byte budget meters are a few hundred bytes, not
  // the multi-KB dense image.
  std::unique_ptr<TemporalIndex> BuildIndex(int days) {
    return BuildIndexOf(days, [](int i) {
      DataCube cube(TinySchema());
      cube.Add(0, 0, 0, 0, static_cast<uint64_t>(i + 1));
      return cube;
    });
  }

  template <typename MakeDay>
  std::unique_ptr<TemporalIndex> BuildIndexOf(int days, MakeDay make_day) {
    TemporalIndexOptions options;
    options.schema = TinySchema();
    options.num_levels = 4;
    options.dir =
        env::JoinPath(dir_.path(), "index-" + std::to_string(counter_++));
    options.device = DeviceModel::None();
    auto index = TemporalIndex::Create(options);
    EXPECT_TRUE(index.ok());
    Date d = Date::FromYmd(2021, 1, 1);
    for (int i = 0; i < days; ++i) {
      EXPECT_TRUE(index.value()->AppendDay(d, make_day(i)).ok());
      d = d.next();
    }
    return std::move(index).value();
  }

  // Resident charge of every cube of `level` in `snapshot`, newest `n`
  // only — the budget that admits exactly those cubes on preload. Every
  // cube keeps its encoded body.
  static uint64_t BytesForLatest(const CatalogSnapshot& snapshot, Level level,
                                 size_t n) {
    uint64_t total = 0;
    for (const CubeKey& key : snapshot.LatestKeys(level, n)) {
      CubeLoc loc = snapshot.LocOf(key).value();
      total += CubeCache::EntryBytes(loc.blob_bytes - CubeBlobHeader::kBytes);
    }
    return total;
  }

  static uint64_t BytesForAll(const CatalogSnapshot& snapshot) {
    uint64_t total = 0;
    for (int level = 0; level < kNumLevels; ++level) {
      total += BytesForLatest(snapshot, static_cast<Level>(level),
                              std::numeric_limits<size_t>::max());
    }
    return total;
  }

  // Page-validated membership against the index's current version.
  static bool Cached(const CubeCache& cache, const TemporalIndex& index,
                     const CubeKey& key) {
    std::optional<PageId> page = index.Snapshot().PageOf(key);
    return page.has_value() && cache.Contains(key, *page);
  }

  TempDir dir_{"cache-test"};
  int counter_ = 0;
};

TEST_F(CubeCacheTest, RecencyPreloadSplitsByLevel) {
  auto index = BuildIndex(90);  // 90 daily, 12 weekly, 2 monthly (Jan, Feb)
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(40, TinySchema());
  options.policy = CachePolicy::kRasedRecency;
  // alpha .4 beta .35 gamma .2 theta .05
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());

  // The most recent daily/weekly/monthly cubes must be resident.
  EXPECT_TRUE(Cached(cache, *index, CubeKey::Daily(Date::FromYmd(2021, 3, 31))));
  EXPECT_TRUE(
      Cached(cache, *index, CubeKey::Weekly(Date::FromYmd(2021, 3, 22))));
  EXPECT_TRUE(
      Cached(cache, *index, CubeKey::Monthly(Date::FromYmd(2021, 2, 1))));
  EXPECT_LE(cache.bytes_used(), options.byte_budget);
}

TEST_F(CubeCacheTest, GenerousBudgetChargesResidentBytes) {
  auto index = BuildIndex(45);
  IndexStorageStats stats = index->StorageStats();
  CacheOptions options;
  // Exactly room for everything.
  options.byte_budget = BytesForAll(index->Snapshot());
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  // Every cube fits, and each entry is charged exactly its resident size
  // — which for these sparse cubes is far above the catalog's blob bytes.
  EXPECT_EQ(cache.size(), stats.total_cubes);
  EXPECT_EQ(cache.bytes_used(), options.byte_budget);
  EXPECT_GT(cache.bytes_used(), stats.encoded_bytes);
}

TEST_F(CubeCacheTest, LeftoverBytesFallToDaily) {
  auto index = BuildIndex(60);
  IndexStorageStats stats = index->StorageStats();
  CacheOptions options;
  // Budget covers the whole index, but theta hands half of it to yearly
  // cubes — and none exist. Only if the unused yearly (and surplus
  // weekly/monthly) bytes fall through to daily can everything load.
  options.byte_budget = BytesForAll(index->Snapshot());
  options.theta = 0.5;
  options.alpha = 0.2;
  options.beta = 0.2;
  options.gamma = 0.1;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  EXPECT_EQ(cache.size(), stats.total_cubes);
}

TEST_F(CubeCacheTest, FindCountsHitsAndMisses) {
  auto index = BuildIndex(30);
  CatalogSnapshot snapshot = index->Snapshot();
  CacheOptions options;
  // Exactly the 10 newest dailies fit (every daily here encodes to the
  // same size: one 1-byte-varint cell).
  options.byte_budget = BytesForLatest(snapshot, Level::kDaily, 10);
  options.policy = CachePolicy::kAllDaily;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());

  CubeKey newest = CubeKey::Daily(Date::FromYmd(2021, 1, 30));
  CubeKey oldest = CubeKey::Daily(Date::FromYmd(2021, 1, 1));
  EXPECT_NE(cache.FindEncoded(newest, snapshot.PageOf(newest).value()),
            nullptr);
  EXPECT_EQ(cache.FindEncoded(oldest, snapshot.PageOf(oldest).value()),
            nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(CubeCacheTest, CachedCubesHaveCorrectContents) {
  auto index = BuildIndex(30);
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(5, TinySchema());
  options.policy = CachePolicy::kAllDaily;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  CubeKey key = CubeKey::Daily(Date::FromYmd(2021, 1, 30));
  PageId page = index->Snapshot().PageOf(key).value();
  // The resident form is the sparse blob as read...
  std::shared_ptr<const EncodedCube> blob = cache.FindEncoded(key, page);
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->encoding(), CubeEncoding::kSparseCoo);
  // ...and the decoding lookup rebuilds the cube from it.
  std::shared_ptr<const DataCube> cube = cache.Find(key, page);
  ASSERT_NE(cube, nullptr);
  EXPECT_EQ(cube->Total(), 30u);  // day 30's cube value
}

TEST_F(CubeCacheTest, StaticPolicyIgnoresInsert) {
  auto index = BuildIndex(10);
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(2, TinySchema());
  options.policy = CachePolicy::kRasedRecency;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  size_t before = cache.size();
  DataCube cube(TinySchema());
  cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 1)), kInvalidPageId,
               Blob(cube));
  EXPECT_EQ(cache.size(), before);
}

TEST_F(CubeCacheTest, LruAdmitsAndEvictsByBytes) {
  DataCube cube(TinySchema());
  CacheOptions options;
  // Room for exactly two of this cube's entries.
  options.byte_budget = 2 * Charge(cube);
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);

  CubeKey k1 = CubeKey::Daily(Date::FromYmd(2021, 1, 1));
  CubeKey k2 = CubeKey::Daily(Date::FromYmd(2021, 1, 2));
  CubeKey k3 = CubeKey::Daily(Date::FromYmd(2021, 1, 3));
  cache.Insert(k1, kInvalidPageId, Blob(cube));
  cache.Insert(k2, kInvalidPageId, Blob(cube));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes_used(), options.byte_budget);
  // Touch k1 so k2 is the LRU victim.
  EXPECT_NE(cache.FindEncoded(k1, kInvalidPageId), nullptr);
  cache.Insert(k3, kInvalidPageId, Blob(cube));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(k1, kInvalidPageId));
  EXPECT_FALSE(cache.Contains(k2, kInvalidPageId));
  EXPECT_TRUE(cache.Contains(k3, kInvalidPageId));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.bytes_used(), options.byte_budget);
}

TEST_F(CubeCacheTest, LruEvictsMultipleSmallEntriesForOneLarge) {
  DataCube sparse(TinySchema());
  sparse.Add(0, 0, 0, 0, 1);
  DataCube dense(TinySchema());
  for (uint32_t c = 0; c < TinySchema().num_cells(); ++c) {
    dense.Add((c / 128) % 3, (c / 16) % 8, (c / 4) % 4, c % 4, 1000000 + c);
  }
  auto dense_blob = Blob(dense, CubeEncodingPolicy::kForceDense);
  const uint64_t sparse_bytes = Charge(sparse);
  const uint64_t dense_bytes = CubeCache::EntryBytes(dense_blob->body_bytes());
  ASSERT_GT(dense_bytes, 3 * sparse_bytes);

  CacheOptions options;
  options.byte_budget = dense_bytes + sparse_bytes;
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  for (int i = 0; i < 4; ++i) {
    cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 1 + i)),
                 kInvalidPageId, Blob(sparse));
  }
  ASSERT_EQ(cache.size(), 4u);
  // One large admission must displace as many small victims as its size
  // requires, never overshooting the budget.
  CubeKey large = CubeKey::Daily(Date::FromYmd(2021, 2, 1));
  cache.Insert(large, kInvalidPageId, dense_blob);
  EXPECT_TRUE(cache.Contains(large, kInvalidPageId));
  EXPECT_LE(cache.bytes_used(), options.byte_budget);
  EXPECT_LT(cache.size(), 5u);
}

TEST_F(CubeCacheTest, LruNeverAdmitsCubeLargerThanBudget) {
  DataCube cube(TinySchema());
  cube.Add(0, 0, 0, 0, 5);
  CacheOptions options;
  options.byte_budget = Charge(cube) - 1;
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 1)), kInvalidPageId,
               Blob(cube));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST_F(CubeCacheTest, InsertChargesEntryBytes) {
  DataCube sparse(TinySchema());
  sparse.Add(1, 2, 3, 0, 9);
  DataCube full(TinySchema());
  for (uint32_t c = 0; c < TinySchema().num_cells(); ++c) {
    full.Add((c / 128) % 3, (c / 16) % 8, (c / 4) % 4, c % 4, 1);
  }
  auto sparse_blob = Blob(sparse);
  auto dense_blob = Blob(full, CubeEncodingPolicy::kForceDense);
  CacheOptions options;
  options.byte_budget = CubeCache::EntryBytes(sparse_blob->body_bytes()) +
                        CubeCache::EntryBytes(dense_blob->body_bytes()) - 1;
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  // The charge is the entry's own heap: the body words plus a fixed
  // per-entry overhead, whatever the blob's encoding.
  cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 1)), kInvalidPageId,
               sparse_blob);
  EXPECT_EQ(cache.bytes_used(),
            CubeCache::EntryBytes(sparse_blob->body_bytes()));
  EXPECT_GT(cache.bytes_used(), sparse_blob->SerializedBytes());
  EXPECT_EQ(CubeCache::EntryBytes(dense_blob->body_bytes()) -
                CubeCache::EntryBytes(0),
            TinySchema().cube_bytes());
  // Over the budget by one byte next to the sparse entry: it evicts the
  // sparse entry rather than overshooting.
  cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 2)), kInvalidPageId,
               dense_blob);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes_used(),
            CubeCache::EntryBytes(dense_blob->body_bytes()));
}

TEST_F(CubeCacheTest, MoveInsertAdmitsWithoutCopy) {
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(4, TinySchema());
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);

  DataCube cube(TinySchema());
  cube.Add(1, 1, 1, 1, 7);
  std::shared_ptr<const EncodedCube> blob = Blob(cube);
  const EncodedCube* before = blob.get();
  CubeKey key = CubeKey::Daily(Date::FromYmd(2021, 1, 1));
  cache.Insert(key, kInvalidPageId, std::move(blob));

  // The cached entry is the handed-over blob itself (no copy).
  auto found = cache.FindEncoded(key, kInvalidPageId);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found.get(), before);
  EXPECT_EQ(cache.Find(key, kInvalidPageId)->Get(1, 1, 1, 1), 7u);
}

TEST_F(CubeCacheTest, MoveInsertIgnoredUnderStaticPolicies) {
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(4, TinySchema());
  options.policy = CachePolicy::kRasedRecency;
  CubeCache cache(options);
  EXPECT_FALSE(cache.AdmitsOnQuery());

  DataCube cube(TinySchema());
  CubeKey key = CubeKey::Daily(Date::FromYmd(2021, 1, 1));
  cache.Insert(key, kInvalidPageId, Blob(cube));
  EXPECT_EQ(cache.size(), 0u);

  CacheOptions lru = options;
  lru.policy = CachePolicy::kLru;
  EXPECT_TRUE(CubeCache(lru).AdmitsOnQuery());
}

TEST_F(CubeCacheTest, MoveInsertRefreshesExistingEntry) {
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(2, TinySchema());
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  CubeKey key = CubeKey::Daily(Date::FromYmd(2021, 1, 1));

  DataCube v1(TinySchema());
  v1.Add(0, 0, 0, 0, 1);
  cache.Insert(key, kInvalidPageId, Blob(v1));
  DataCube v2(TinySchema());
  v2.Add(0, 0, 0, 0, 2);
  v2.Add(2, 7, 3, 3, 300);  // a longer body than v1's
  cache.Insert(key, kInvalidPageId, Blob(v2));

  EXPECT_EQ(cache.size(), 1u);
  // A refresh replaces the old charge rather than stacking on top of it.
  EXPECT_EQ(cache.bytes_used(), Charge(v2));
  auto found = cache.Find(key, kInvalidPageId);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->Get(0, 0, 0, 0), 2u);
}

TEST_F(CubeCacheTest, LruWarmIsNoOp) {
  auto index = BuildIndex(10);
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(5, TinySchema());
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(CubeCacheTest, BytesForCubes) {
  CubeSchema schema = TinySchema();
  EXPECT_EQ(CacheOptions::BytesForCubes(0, schema), 0u);
  // Per-cube allotment is a dense entry — the largest resident form — so
  // N inserts of any encoding always fit, and the (N+1)th dense one
  // evicts.
  CacheOptions options;
  options.byte_budget = CacheOptions::BytesForCubes(3, schema);
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);
  DataCube cube(schema);
  for (uint32_t c = 0; c < schema.num_cells(); ++c) {
    cube.Add((c / 128) % 3, (c / 16) % 8, (c / 4) % 4, c % 4, c + 1);
  }
  for (int i = 0; i < 4; ++i) {
    cache.Insert(CubeKey::Daily(Date::FromYmd(2021, 1, 1 + i)),
                 kInvalidPageId, Blob(cube, CubeEncodingPolicy::kForceDense));
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.bytes_used(), options.byte_budget);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// Warm is a refresh, not a reload: on an unchanged catalog a second pass
// reads nothing and every entry keeps the very blob the first pass
// admitted.
TEST_F(CubeCacheTest, RewarmOnUnchangedCatalogReadsNothing) {
  auto index = BuildIndex(60);
  CatalogSnapshot snapshot = index->Snapshot();
  CacheOptions options;
  // Room for part of the index only, so the selection stops inside a
  // level.
  options.byte_budget = BytesForAll(snapshot) / 2;
  CubeCache cache(options);
  ASSERT_TRUE(cache.Warm(index.get()).ok());
  ASSERT_GT(cache.size(), 0u);
  ASSERT_LT(cache.size(), index->StorageStats().total_cubes);

  auto resident = [&] {
    std::vector<const EncodedCube*> blobs;
    for (int level = 0; level < kNumLevels; ++level) {
      for (const CubeKey& key :
           snapshot.LatestKeys(static_cast<Level>(level),
                               std::numeric_limits<size_t>::max())) {
        blobs.push_back(
            cache.FindEncoded(key, snapshot.PageOf(key).value()).get());
      }
    }
    return blobs;
  };
  const std::vector<const EncodedCube*> before = resident();
  const uint64_t bytes_before = cache.bytes_used();
  const uint64_t read_ops_before = index->pager()->stats().read_ops;

  ASSERT_TRUE(cache.Warm(index.get()).ok());
  EXPECT_EQ(index->pager()->stats().read_ops, read_ops_before);
  EXPECT_EQ(resident(), before);
  EXPECT_EQ(cache.bytes_used(), bytes_before);
}

// The budget is a true limit on memory: after Warm, the resident-bytes
// gauge must match the heap the warm pass kept (allocated - freed, as the
// allocator hooks measure it) within 5%, on an index mixing both
// encodings.
TEST_F(CubeCacheTest, ResidentBytesGaugeMatchesWarmHeap) {
  Rng rng(5);
  auto index = BuildIndexOf(60, [&rng](int i) {
    DataCube cube(TinySchema());
    const CubeSchema schema = TinySchema();
    if (i % 3 == 0) {  // one cell: sparse
      cube.Add(0, 1, 2, 3, static_cast<uint64_t>(i + 1));
      return cube;
    }
    for (uint32_t c = 0; c < schema.num_cells(); ++c) {
      // Small counts compress to COO; full-width ones stay dense.
      uint64_t value = i % 3 == 1 ? 1 + c % 3 : rng.Next();
      cube.Add((c / 128) % 3, (c / 16) % 8, (c / 4) % 4, c % 4, value);
    }
    return cube;
  });
  CatalogSnapshot snapshot = index->Snapshot();
  int per_encoding[2] = {0, 0};
  for (int level = 0; level < kNumLevels; ++level) {
    for (const CubeKey& key : snapshot.LatestKeys(
             static_cast<Level>(level), std::numeric_limits<size_t>::max())) {
      ++per_encoding[static_cast<int>(snapshot.LocOf(key)->encoding)];
    }
  }
  ASSERT_GT(per_encoding[static_cast<int>(CubeEncoding::kSparseCoo)], 0);
  ASSERT_GT(per_encoding[static_cast<int>(CubeEncoding::kDenseRaw)], 0);

  MetricsRegistry registry;
  CacheOptions options;
  options.byte_budget = BytesForAll(snapshot);
  options.metrics = &registry;
  CubeCache cache(options);
  int64_t net_heap = 0;
  {
    ResourceScope scope;
    ASSERT_TRUE(cache.Warm(index.get()).ok());
    ResourceUsage usage = scope.Usage();
    net_heap = static_cast<int64_t>(usage.allocated_bytes) -
               static_cast<int64_t>(usage.freed_bytes);
  }
  ASSERT_EQ(cache.size(), index->StorageStats().total_cubes);
  const int64_t gauge =
      registry.GetGauge("rased_cache_resident_bytes", "")->value();
  EXPECT_EQ(gauge, static_cast<int64_t>(cache.bytes_used()));
  EXPECT_LE(std::llabs(gauge - net_heap), net_heap / 20)
      << "gauge " << gauge << " vs net heap " << net_heap;
}

}  // namespace
}  // namespace rased
