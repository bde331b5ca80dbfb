#include "cache/cube_cache.h"

#include <cmath>
#include <optional>
#include <span>
#include <utility>

#include "cube/cube_codec.h"
#include "util/logging.h"

namespace rased {

namespace {

/// Blob bytes one batched warm read may cover, bounding Warm's transient
/// arena (the selected cubes are read in as many batches as it takes).
constexpr uint64_t kWarmBatchBytes = uint64_t{4} << 20;

}  // namespace

uint64_t CacheOptions::BytesForCubes(size_t cubes, const CubeSchema& schema) {
  return static_cast<uint64_t>(cubes) *
         CubeCache::EntryBytes(schema.cube_bytes());
}

uint64_t CubeCache::EntryBytes(size_t body_bytes) {
  // make_shared block: two reference counts and a vtable pointer ahead of
  // the EncodedCube. Hash node: next pointer, key/entry pair, cached hash;
  // plus one bucket pointer. LRU node: two links and the key.
  constexpr uint64_t kOverhead =
      2 * sizeof(void*) + sizeof(EncodedCube) +
      sizeof(void*) + sizeof(std::pair<const CubeKey, Entry>) +
      sizeof(size_t) + sizeof(void*) + 2 * sizeof(void*) + sizeof(CubeKey);
  return kOverhead + (body_bytes + 7) / 8 * 8;
}

CubeCache::CubeCache(const CacheOptions& options) : options_(options) {
  if (options_.metrics != nullptr) {
    MetricsRegistry* registry = options_.metrics;
    metrics_.hits = registry->GetCounter("rased_cache_hits_total",
                                         "Cube cache lookup hits");
    metrics_.misses = registry->GetCounter("rased_cache_misses_total",
                                           "Cube cache lookup misses");
    metrics_.admissions =
        registry->GetCounter("rased_cache_admissions_total",
                             "Cubes admitted on the query path (LRU policy)");
    metrics_.evictions = registry->GetCounter("rased_cache_evictions_total",
                                              "Cubes evicted to make room");
    metrics_.preloads = registry->GetCounter(
        "rased_cache_preloads_total", "Cubes preloaded by the static policy");
    metrics_.resident =
        registry->GetGauge("rased_cache_resident_cubes",
                           "Cubes currently resident in the cache");
    metrics_.resident_bytes =
        registry->GetGauge("rased_cache_resident_bytes",
                           "Heap bytes held by resident cube blobs and their "
                           "entries (the byte-budget charge)");
    metrics_.budget_bytes = registry->GetGauge(
        "rased_cache_budget_bytes", "Configured cache byte budget");
    metrics_.budget_bytes->Set(static_cast<int64_t>(options_.byte_budget));
  }
}

Status CubeCache::Warm(const TemporalIndex* index) {
  // One snapshot for the whole pass: every entry it keeps or admits
  // carries the page of the same published version, and maintenance
  // concurrent with the pass neither blocks nor is blocked by it.
  CatalogSnapshot snapshot = index->Snapshot();

  // The recency selection, purely from catalog metadata: walk each level
  // newest to oldest and take the run whose resident entries (the blob's
  // body) fit the level's byte share. It is every catalog key from the
  // level's oldest selected start on.
  std::vector<CubeKey> keys;
  std::vector<CubeLoc> locs;
  std::optional<Date> oldest[kNumLevels];
  auto select = [&](Level level, uint64_t max_bytes) {
    uint64_t selected_bytes = 0;
    snapshot.ForEachNewest(level, [&](const CubeKey& key, const CubeLoc& loc) {
      const uint64_t bytes = EntryBytes(loc.blob_bytes - CubeBlobHeader::kBytes);
      if (selected_bytes + bytes > max_bytes) return false;
      selected_bytes += bytes;
      keys.push_back(key);
      locs.push_back(loc);
      oldest[static_cast<int>(level)] = key.start;
      return true;
    });
    return selected_bytes;
  };
  // kRasedRecency splits the budget's bytes by (alpha, beta, gamma, theta);
  // whatever the coarser levels do not select falls to daily, the level
  // with the most nodes (kAllDaily gives daily all of it).
  const uint64_t budget = options_.byte_budget;
  uint64_t coarse = 0;
  if (options_.policy == CachePolicy::kRasedRecency) {
    const double b = static_cast<double>(budget);
    coarse += select(Level::kWeekly,
                     static_cast<uint64_t>(std::floor(options_.beta * b)));
    coarse += select(Level::kMonthly,
                     static_cast<uint64_t>(std::floor(options_.gamma * b)));
    coarse += select(Level::kYearly,
                     static_cast<uint64_t>(std::floor(options_.theta * b)));
  }
  if (!AdmitsOnQuery()) {
    select(Level::kDaily, coarse < budget ? budget - coarse : 0);
  }

  // Compare and drop, before any read so the charge stays in budget: a
  // selected key resident at its selected page keeps its entry; the keys
  // to read compact to the front of keys/locs; every other entry goes.
  // Under kLru, which queries fill, an entry stays while the catalog maps
  // its key to its page; past a re-stage it would hit again once the
  // pager recycled its old page for the same key.
  std::vector<std::shared_ptr<const EncodedCube>> dropped;
  size_t missing = 0;
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = entries_.find(keys[i]);
      if (it != entries_.end() && it->second.page == locs[i].first_page) {
        continue;
      }
      if (it != entries_.end()) DropLocked(it, &dropped);
      keys[missing] = keys[i];
      locs[missing] = locs[i];
      ++missing;
    }
    for (auto it = entries_.begin(); it != entries_.end();) {
      const CubeKey& key = it->first;
      const std::optional<Date>& from = oldest[static_cast<int>(key.level)];
      const bool stays = AdmitsOnQuery()
                             ? snapshot.PageOf(key) == it->second.page
                             : from.has_value() && *from <= key.start;
      it = stays ? std::next(it) : DropLocked(it, &dropped);
    }
    PublishResidentLocked();
  }
  // The dropped blobs are released here, outside mu_.
  dropped.clear();
  keys.resize(missing);
  locs.resize(missing);

  // Read the missing cubes in batches of about kWarmBatchBytes of blobs,
  // and admit each blob in its resident form.
  for (size_t begin = 0, end = 0; begin < keys.size(); begin = end) {
    uint64_t batch_bytes = 0;
    while (end < keys.size() &&
           (end == begin ||
            batch_bytes + locs[end].blob_bytes <= kWarmBatchBytes)) {
      batch_bytes += locs[end++].blob_bytes;
    }
    auto batch = index->ReadCubes(
        snapshot, std::span<const CubeKey>(keys).subspan(begin, end - begin));
    for (size_t i = begin; i < end; ++i) {
      auto blob = batch.ok() ? batch.value().Extract(i - begin)
                             : Result<std::shared_ptr<const EncodedCube>>(
                                   batch.status());
      if (!blob.ok()) {
        RASED_LOG(Warning) << "cache warm of " << keys[i].ToString()
                           << " failed: " << blob.status().ToString();
        continue;
      }
      const uint64_t bytes = EntryBytes(blob.value()->body_bytes());
      MutexLock lock(&mu_);
      Admit(keys[i], locs[i].first_page, bytes, std::move(blob).value());
      ++stats_.preloaded;
      if (metrics_.preloads != nullptr) metrics_.preloads->Increment();
    }
  }
  return Status::OK();
}

std::shared_ptr<const EncodedCube> CubeCache::FindEncoded(const CubeKey& key,
                                                          PageId page) {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.page != page) {
    // Absent, or cached from a different page (a different version of the
    // cube): never serve it to this snapshot.
    ++stats_.misses;
    if (metrics_.misses != nullptr) metrics_.misses->Increment();
    return nullptr;
  }
  ++stats_.hits;
  if (metrics_.hits != nullptr) metrics_.hits->Increment();
  if (AdmitsOnQuery()) {
    lru_list_.splice(lru_list_.begin(), lru_list_, it->second.lru_it);
  }
  return it->second.cube;
}

std::shared_ptr<const DataCube> CubeCache::Find(const CubeKey& key,
                                                PageId page) {
  std::shared_ptr<const EncodedCube> blob = FindEncoded(key, page);
  if (blob == nullptr) return nullptr;
  auto cube = blob->Decode();
  if (!cube.ok()) return nullptr;
  return std::make_shared<const DataCube>(std::move(cube).value());
}

void CubeCache::Insert(const CubeKey& key, PageId page,
                       std::shared_ptr<const EncodedCube> cube) {
  if (!AdmitsOnQuery() || cube == nullptr) return;
  const uint64_t bytes = EntryBytes(cube->body_bytes());
  if (bytes > options_.byte_budget) return;  // can never fit
  MutexLock lock(&mu_);
  Admit(key, page, bytes, std::move(cube));
  if (metrics_.admissions != nullptr) metrics_.admissions->Increment();
}

bool CubeCache::Contains(const CubeKey& key, PageId page) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.page == page;
}

void CubeCache::Admit(const CubeKey& key, PageId page, uint64_t bytes,
                      std::shared_ptr<const EncodedCube> cube) {
  // A refresh replaces the old entry and its charge.
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_used_ -= it->second.bytes;
    if (AdmitsOnQuery()) lru_list_.erase(it->second.lru_it);
    entries_.erase(it);
  }
  // Only LRU entries are ever evicted; the static preload selects to fit.
  while (bytes_used_ + bytes > options_.byte_budget && !lru_list_.empty()) {
    auto victim = entries_.find(lru_list_.back());
    bytes_used_ -= victim->second.bytes;
    entries_.erase(victim);
    lru_list_.pop_back();
    ++stats_.evictions;
    if (metrics_.evictions != nullptr) metrics_.evictions->Increment();
  }
  if (AdmitsOnQuery()) lru_list_.push_front(key);
  entries_.emplace(key,
                   Entry{std::move(cube), page, bytes, lru_list_.begin()});
  bytes_used_ += bytes;
  PublishResidentLocked();
}

CubeCache::EntryMap::iterator CubeCache::DropLocked(
    EntryMap::iterator it,
    std::vector<std::shared_ptr<const EncodedCube>>* dropped) {
  bytes_used_ -= it->second.bytes;
  if (AdmitsOnQuery()) lru_list_.erase(it->second.lru_it);
  dropped->push_back(std::move(it->second.cube));
  return entries_.erase(it);
}

void CubeCache::PublishResidentLocked() {
  if (metrics_.resident != nullptr) {
    metrics_.resident->Set(static_cast<int64_t>(entries_.size()));
    metrics_.resident_bytes->Set(static_cast<int64_t>(bytes_used_));
  }
}

size_t CubeCache::size() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

uint64_t CubeCache::bytes_used() const {
  MutexLock lock(&mu_);
  return bytes_used_;
}

CacheStats CubeCache::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

}  // namespace rased
