#include "index/temporal_index.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "io/env.h"
#include "util/logging.h"
#include "util/str_util.h"

namespace rased {

namespace {

constexpr char kCatalogMagic[] = "rased-catalog v1";

constexpr const char* kLevelNames[kNumLevels] = {"daily", "weekly", "monthly",
                                                 "yearly"};

const CatalogVersion::LevelMap& LevelMapOf(const CatalogVersion& version,
                                           Level level) {
  static const CatalogVersion::LevelMap kEmpty;
  const auto& map = version.levels[static_cast<int>(level)];
  return map == nullptr ? kEmpty : *map;
}

/// Page payload for adaptive-encoding indexes. Small pages let a sparse
/// daily cube occupy one page instead of a dense-sized one; multi-page
/// blobs land on consecutive pages and are read with one coalesced pread,
/// so large cubes cost the same seeks as before. Capped at the dense blob
/// size so tiny-schema indexes keep one-page dense cubes, floored at the
/// page file minimum, and always a multiple of 8 (cube_bytes is), which
/// keeps batch arena offsets 8-byte aligned.
size_t AdaptivePagePayload(const CubeSchema& schema) {
  constexpr size_t kTargetPayload = 4096;
  const size_t dense_blob = schema.cube_bytes() + CubeBlobHeader::kBytes;
  return std::max<size_t>(64, std::min(kTargetPayload, dense_blob));
}

/// Appends every page of `loc`'s run to `out`.
void AppendRunPages(const CubeLoc& loc, std::vector<PageId>* out) {
  for (uint32_t k = 0; k < loc.num_pages; ++k) {
    out->push_back(loc.first_page + k);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// CatalogSnapshot
// ---------------------------------------------------------------------------

std::optional<CubeLoc> CatalogSnapshot::LocOf(const CubeKey& key) const {
  if (version_ == nullptr) return std::nullopt;
  const auto& map = LevelMapOf(*version_, key.level);
  auto it = map.find(key.start);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

std::optional<PageId> CatalogSnapshot::PageOf(const CubeKey& key) const {
  std::optional<CubeLoc> loc = LocOf(key);
  if (!loc.has_value()) return std::nullopt;
  return loc->first_page;
}

std::optional<uint64_t> CatalogSnapshot::EncodedBytesOf(
    const CubeKey& key) const {
  std::optional<CubeLoc> loc = LocOf(key);
  if (!loc.has_value()) return std::nullopt;
  return loc->blob_bytes;
}

std::vector<CubeKey> CatalogSnapshot::ExistingKeys(
    Level level, const DateRange& range) const {
  std::vector<CubeKey> keys;
  if (version_ == nullptr) return keys;
  const auto& map = LevelMapOf(*version_, level);
  for (const CubeKey& key : KeysCoveredBy(level, range)) {
    if (map.find(key.start) != map.end()) keys.push_back(key);
  }
  return keys;
}

std::vector<CubeKey> CatalogSnapshot::LatestKeys(Level level, size_t n) const {
  std::vector<CubeKey> keys;
  if (version_ == nullptr) return keys;
  const auto& map = LevelMapOf(*version_, level);
  for (auto it = map.rbegin(); it != map.rend() && keys.size() < n; ++it) {
    keys.push_back(CubeKey{level, it->first});
  }
  std::reverse(keys.begin(), keys.end());
  return keys;
}

DateRange CatalogSnapshot::coverage() const {
  if (version_ == nullptr || !version_->first_day.has_value()) {
    return DateRange();
  }
  return DateRange(*version_->first_day, *version_->last_day);
}

IndexStorageStats CatalogSnapshot::StorageStats() const {
  IndexStorageStats stats;
  if (version_ == nullptr) return stats;
  for (int level = 0; level < kNumLevels; ++level) {
    const auto& map = LevelMapOf(*version_, static_cast<Level>(level));
    stats.cubes_per_level[level] = map.size();
    stats.total_cubes += map.size();
    for (const auto& [day, loc] : map) stats.encoded_bytes += loc.blob_bytes;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// TemporalIndex
// ---------------------------------------------------------------------------

TemporalIndex::TemporalIndex(TemporalIndexOptions options,
                             std::unique_ptr<Pager> pager)
    : options_(std::move(options)), pager_(std::move(pager)) {
  // The empty catalog is itself a published version: epoch 1, no cubes.
  auto genesis = std::make_shared<CatalogVersion>();
  genesis->epoch = 1;
  SetCurrent(std::move(genesis));
  if (options_.metrics != nullptr) {
    MetricsRegistry* registry = options_.metrics;
    pager_->RegisterMetrics(registry, "index");
    metrics_.cube_reads = registry->GetCounter(
        "rased_index_cube_reads_total", "Cubes fetched from the index pager");
    metrics_.days_appended = registry->GetCounter(
        "rased_index_days_appended_total", "Daily cubes appended");
    metrics_.month_rebuilds =
        registry->GetCounter("rased_index_month_rebuilds_total",
                             "Monthly-crawler rebuild passes applied");
    metrics_.publications =
        registry->GetCounter("rased_index_publications_total",
                             "Catalog versions published (epoch swaps)");
    for (int level = 0; level < kNumLevels; ++level) {
      // NOLINT-RASED(metric-in-loop): one-time registration over kNumLevels
      metrics_.cubes_per_level[level] = registry->GetGauge(
          "rased_index_cubes", "Cubes stored per level",
          {{"level", kLevelNames[level]}});
    }
    metrics_.file_bytes = registry->GetGauge(
        "rased_index_file_bytes", "Bytes of the index page file on disk");
    metrics_.epoch = registry->GetGauge(
        "rased_index_epoch", "Epoch of the currently published catalog");
    metrics_.retired = registry->GetGauge(
        "rased_index_retired_versions",
        "Retired catalog versions awaiting reader drain");
  }
}

void TemporalIndex::UpdateStorageMetrics() const {
  if (metrics_.file_bytes == nullptr) return;
  CatalogSnapshot snap = Snapshot();
  IndexStorageStats stats = snap.StorageStats();
  for (int level = 0; level < kNumLevels; ++level) {
    metrics_.cubes_per_level[level]->Set(
        static_cast<int64_t>(stats.cubes_per_level[level]));
  }
  metrics_.file_bytes->Set(
      static_cast<int64_t>((pager_->num_pages() + 1) * pager_->page_size()));
  metrics_.epoch->Set(static_cast<int64_t>(snap.epoch()));
}

TemporalIndex::~TemporalIndex() {
  Status s = Sync();
  if (!s.ok()) RASED_LOG(Warning) << "TemporalIndex close: " << s.ToString();
}

std::string TemporalIndex::CatalogPath(const std::string& dir) {
  return env::JoinPath(dir, "catalog");
}

std::string TemporalIndex::PagesPath(const std::string& dir) {
  return env::JoinPath(dir, "cubes.pages");
}

Result<std::unique_ptr<TemporalIndex>> TemporalIndex::Create(
    const TemporalIndexOptions& options) {
  if (options.num_levels < 1 || options.num_levels > kNumLevels) {
    return Status::InvalidArgument(
        StrFormat("num_levels must be 1..%d, got %d", kNumLevels,
                  options.num_levels));
  }
  RASED_RETURN_IF_ERROR(env::CreateDirs(options.dir));
  if (env::FileExists(PagesPath(options.dir))) {
    return Status::AlreadyExists("index already exists in " + options.dir);
  }
  // Page geometry. Adaptive indexes use small pages sized for encoded
  // blobs (AdaptivePagePayload); forced-dense indexes keep them too, so
  // the compression bench compares encodings under identical geometry.
  size_t page_size =
      AdaptivePagePayload(options.schema) + PageFile::kChecksumBytes;
  auto pager = Pager::Create(PagesPath(options.dir), page_size,
                             options.device);
  if (!pager.ok()) return pager.status();
  auto index = std::unique_ptr<TemporalIndex>(
      new TemporalIndex(options, std::move(pager).value()));
  RASED_RETURN_IF_ERROR(index->SaveCatalog());
  index->UpdateStorageMetrics();
  return index;
}

Result<std::unique_ptr<TemporalIndex>> TemporalIndex::Open(
    const TemporalIndexOptions& options) {
  auto contents = env::ReadFile(CatalogPath(options.dir));
  if (!contents.ok()) return contents.status();

  auto pager = Pager::Open(PagesPath(options.dir), options.device);
  if (!pager.ok()) return pager.status();
  auto index = std::unique_ptr<TemporalIndex>(
      new TemporalIndex(options, std::move(pager).value()));

  // Parse the catalog into the version this index will publish as its
  // opening state. The index is not visible to other threads yet.
  auto version = std::make_shared<CatalogVersion>();
  version->epoch = 1;  // pre-epoch catalogs (v1 without an epoch line)
  CatalogVersion::LevelMap maps[kNumLevels];
  std::vector<std::string> lines = Split(contents.value(), '\n');
  if (lines.empty() || lines[0] != kCatalogMagic) {
    return Status::Corruption("bad catalog header in " + options.dir);
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = Trim(lines[i]);
    if (line.empty()) continue;
    std::vector<std::string> f = Split(line, ' ');
    if (f[0] == "schema" && f.size() == 5) {
      CubeSchema s;
      RASED_ASSIGN_OR_RETURN(int64_t et, ParseInt(f[1]));
      RASED_ASSIGN_OR_RETURN(int64_t co, ParseInt(f[2]));
      RASED_ASSIGN_OR_RETURN(int64_t rt, ParseInt(f[3]));
      RASED_ASSIGN_OR_RETURN(int64_t ut, ParseInt(f[4]));
      s.num_element_types = static_cast<uint32_t>(et);
      s.num_countries = static_cast<uint32_t>(co);
      s.num_road_types = static_cast<uint32_t>(rt);
      s.num_update_types = static_cast<uint32_t>(ut);
      if (!(s == options.schema)) {
        return Status::InvalidArgument(
            "catalog schema " + s.ToString() +
            " does not match requested " + options.schema.ToString());
      }
    } else if (f[0] == "levels" && f.size() == 2) {
      RASED_ASSIGN_OR_RETURN(int64_t levels, ParseInt(f[1]));
      if (levels != options.num_levels) {
        return Status::InvalidArgument(
            StrFormat("catalog has %d levels, requested %d",
                      static_cast<int>(levels), options.num_levels));
      }
    } else if (f[0] == "epoch" && f.size() == 2) {
      RASED_ASSIGN_OR_RETURN(uint64_t epoch, ParseUint(f[1]));
      version->epoch = epoch;
    } else if (f[0] == "first_day" && f.size() == 2) {
      RASED_ASSIGN_OR_RETURN(int64_t days, ParseInt(f[1]));
      version->first_day = Date::FromDays(static_cast<int32_t>(days));
    } else if (f[0] == "last_day" && f.size() == 2) {
      RASED_ASSIGN_OR_RETURN(int64_t days, ParseInt(f[1]));
      version->last_day = Date::FromDays(static_cast<int32_t>(days));
    } else if (f[0] == "cube" && f.size() == 7) {
      RASED_ASSIGN_OR_RETURN(int64_t level, ParseInt(f[1]));
      RASED_ASSIGN_OR_RETURN(int64_t days, ParseInt(f[2]));
      RASED_ASSIGN_OR_RETURN(uint64_t page, ParseUint(f[3]));
      RASED_ASSIGN_OR_RETURN(uint64_t npages, ParseUint(f[4]));
      RASED_ASSIGN_OR_RETURN(int64_t enc, ParseInt(f[5]));
      RASED_ASSIGN_OR_RETURN(uint64_t blob_bytes, ParseUint(f[6]));
      if (level < 0 || level >= kNumLevels) {
        return Status::Corruption("bad catalog level " + f[1]);
      }
      if (npages == 0 || npages > UINT32_MAX) {
        return Status::Corruption("bad catalog page count " + f[4]);
      }
      if (enc < 0 || enc > static_cast<int64_t>(CubeEncoding::kSparseCoo)) {
        return Status::Corruption("bad catalog cube encoding " + f[5]);
      }
      CubeLoc loc;
      loc.first_page = page;
      loc.num_pages = static_cast<uint32_t>(npages);
      loc.encoding = static_cast<CubeEncoding>(enc);
      loc.blob_bytes = blob_bytes;
      maps[level][Date::FromDays(static_cast<int32_t>(days))] = loc;
    } else {
      return Status::Corruption("bad catalog line: " + std::string(line));
    }
  }

  // Reconstruct the free-page pool: any page the catalog does not
  // reference (pages orphaned by a crash between staging and publication,
  // or retired before the last save) is reusable.
  // User page ids are 1..num_pages (0 is the file header).
  const PageId num_pages = index->pager_->num_pages();
  const size_t payload = index->pager_->payload_size();
  std::vector<bool> referenced(num_pages + 1, false);
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& [day, loc] : maps[level]) {
      if (loc.first_page == kInvalidPageId || loc.first_page > num_pages ||
          loc.num_pages > num_pages - loc.first_page + 1) {
        return Status::Corruption(
            StrFormat("catalog page run %llu+%u beyond file end",
                      static_cast<unsigned long long>(loc.first_page),
                      loc.num_pages));
      }
      if (loc.blob_bytes < CubeBlobHeader::kBytes ||
          loc.blob_bytes > static_cast<uint64_t>(loc.num_pages) * payload) {
        return Status::Corruption(
            StrFormat("catalog blob length %llu exceeds its %u-page run",
                      static_cast<unsigned long long>(loc.blob_bytes),
                      loc.num_pages));
      }
      for (uint32_t k = 0; k < loc.num_pages; ++k) {
        referenced[loc.first_page + k] = true;
      }
    }
    version->levels[level] = std::make_shared<const CatalogVersion::LevelMap>(
        std::move(maps[level]));
  }
  std::vector<PageId> free_pages;
  for (PageId page = 1; page <= num_pages; ++page) {
    if (!referenced[page]) free_pages.push_back(page);
  }
  index->pager_->ReleasePages(free_pages);

  index->SetCurrent(std::move(version));
  index->UpdateStorageMetrics();
  return index;
}

CatalogSnapshot TemporalIndex::Snapshot() const {
  return CatalogSnapshot(Current());
}

std::shared_ptr<const CatalogVersion> TemporalIndex::Current() const {
  MutexLock lock(&current_mu_);
  return current_;
}

void TemporalIndex::SetCurrent(std::shared_ptr<const CatalogVersion> next) {
  {
    MutexLock lock(&current_mu_);
    current_.swap(next);
  }
  // `next` now holds the displaced version; it is released here, outside
  // the lock (publication keeps its own reference for retirement).
}

size_t TemporalIndex::retired_versions() const {
  MutexLock lock(&maint_mu_);
  return retired_.size();
}

Status TemporalIndex::SaveCatalog() {
  std::shared_ptr<const CatalogVersion> version = Current();
  std::string out = kCatalogMagic;
  out += "\n";
  out += StrFormat("schema %u %u %u %u\n", options_.schema.num_element_types,
                   options_.schema.num_countries,
                   options_.schema.num_road_types,
                   options_.schema.num_update_types);
  out += StrFormat("levels %d\n", options_.num_levels);
  out += StrFormat("epoch %llu\n",
                   static_cast<unsigned long long>(version->epoch));
  if (version->first_day.has_value()) {
    out += StrFormat("first_day %d\n", version->first_day->days_since_epoch());
  }
  if (version->last_day.has_value()) {
    out += StrFormat("last_day %d\n", version->last_day->days_since_epoch());
  }
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& [day, loc] :
         LevelMapOf(*version, static_cast<Level>(level))) {
      out += StrFormat("cube %d %d %llu %u %d %llu\n", level,
                       day.days_since_epoch(),
                       static_cast<unsigned long long>(loc.first_page),
                       loc.num_pages, static_cast<int>(loc.encoding),
                       static_cast<unsigned long long>(loc.blob_bytes));
    }
  }
  // Atomic replace: a crash mid-save must never leave a torn catalog.
  return env::WriteFileAtomic(CatalogPath(options_.dir), out);
}

Status TemporalIndex::Sync() {
  // Pages first: a durable catalog must never name a page that is not.
  RASED_RETURN_IF_ERROR(pager_->Sync());
  return SaveCatalog();
}

// ---- staging ----

Status TemporalIndex::StageCube(Staging* staging, const CubeKey& key,
                                const SparseCube& cube) {
  EncodedCube encoded = EncodedCube::Encode(cube, options_.encoding);
  const size_t blob_bytes = encoded.SerializedBytes();
  const size_t payload = pager_->payload_size();
  const size_t num_pages = (blob_bytes + payload - 1) / payload;
  std::vector<unsigned char> buf(num_pages * payload, 0);
  encoded.SerializeTo(buf.data());
  // Always fresh pages: pages reachable from any published version are
  // immutable, so a pinned reader can never observe a half-written cube.
  // The run is physically consecutive so one pread fetches the blob.
  RASED_ASSIGN_OR_RETURN(PageId first, pager_->AllocateRun(num_pages));
  CubeLoc loc;
  loc.first_page = first;
  loc.num_pages = static_cast<uint32_t>(num_pages);
  loc.encoding = encoded.encoding();
  loc.blob_bytes = blob_bytes;
  Status write = Status::OK();
  for (size_t k = 0; k < num_pages && write.ok(); ++k) {
    write = pager_->WritePage(first + k, buf.data() + k * payload, payload);
  }
  if (!write.ok()) {
    std::vector<PageId> failed;
    AppendRunPages(loc, &failed);
    pager_->ReleasePages(failed);
    return write;
  }
  auto it = staging->staged.find(key);
  if (it != staging->staged.end()) {
    // Re-staged within this pass; the earlier run was never published,
    // so it is immediately reusable.
    std::vector<PageId> abandoned;
    AppendRunPages(it->second, &abandoned);
    pager_->ReleasePages(abandoned);
    it->second = loc;
    return Status::OK();
  }
  staging->staged[key] = loc;
  std::optional<CubeLoc> shadowed =
      CatalogSnapshot(staging->base).LocOf(key);
  if (shadowed.has_value()) AppendRunPages(*shadowed, &staging->dropped);
  return Status::OK();
}

std::optional<CubeLoc> TemporalIndex::StagedLocOf(const Staging& staging,
                                                  const CubeKey& key) const {
  auto it = staging.staged.find(key);
  if (it != staging.staged.end()) return it->second;
  return CatalogSnapshot(staging.base).LocOf(key);
}

Result<SparseCube> TemporalIndex::BuildFromChildren(
    const Staging& staging, const CubeKey& parent,
    const CubeKey* in_memory_key, const SparseCube* in_memory_cube) const {
  const std::vector<CubeKey> children = parent.Children();
  std::vector<SparseCube> read;
  read.reserve(children.size());  // `parts` points into it
  std::vector<const SparseCube*> parts;
  for (const CubeKey& child : children) {
    if (in_memory_key != nullptr && child == *in_memory_key) {
      parts.push_back(in_memory_cube);
      continue;
    }
    std::optional<CubeLoc> loc = StagedLocOf(staging, child);
    if (!loc.has_value()) continue;  // index may start mid-window
    RASED_ASSIGN_OR_RETURN(EncodedCubeBatch blob,
                           ReadLocs({&*loc, 1}, nullptr));
    RASED_ASSIGN_OR_RETURN(
        SparseCube cube, DecodeSparseCube(options_.schema, blob.encoding(0),
                                          blob.body(0), blob.body_bytes(0)));
    read.push_back(std::move(cube));
    parts.push_back(&read.back());
  }
  return SparseCube::Merge(options_.schema, parts);
}

void TemporalIndex::PublishLocked(Staging* staging) {
  auto next = std::make_shared<CatalogVersion>();
  next->epoch = staging->base->epoch + 1;
  next->first_day = staging->first_day;
  next->last_day = staging->last_day;

  // Copy-on-write per level: only levels this pass staged into are
  // copied; untouched levels share the base version's map.
  bool touched[kNumLevels] = {false, false, false, false};
  for (const auto& [key, loc] : staging->staged) {
    touched[static_cast<int>(key.level)] = true;
  }
  for (int level = 0; level < kNumLevels; ++level) {
    if (!touched[level]) {
      next->levels[level] = staging->base->levels[level];
      continue;
    }
    auto map = std::make_shared<CatalogVersion::LevelMap>(
        LevelMapOf(*staging->base, static_cast<Level>(level)));
    for (const auto& [key, loc] : staging->staged) {
      if (static_cast<int>(key.level) == level) (*map)[key.start] = loc;
    }
    next->levels[level] = std::move(map);
  }

  // The publication point: one pointer swap makes the day AND all of its
  // rollups visible together. Readers pinned to the base keep using it.
  SetCurrent(std::move(next));
  retired_.push_back(
      RetiredVersion{std::move(staging->base), std::move(staging->dropped)});
  if (metrics_.publications != nullptr) metrics_.publications->Increment();
  ReclaimRetiredLocked();
}

void TemporalIndex::ReclaimRetiredLocked() {
  // Front-gated: versions retire in order, so a page dropped at version
  // V's retirement (present in V, gone in V+1) may still be referenced by
  // versions retired before V. Popping strictly from the front releases
  // V's pages only after every earlier version has also drained.
  while (!retired_.empty() && retired_.front().version.use_count() == 1) {
    pager_->ReleasePages(retired_.front().dropped);
    retired_.pop_front();
  }
  if (metrics_.retired != nullptr) {
    metrics_.retired->Set(static_cast<int64_t>(retired_.size()));
  }
}

void TemporalIndex::AbandonStaging(Staging* staging) {
  std::vector<PageId> pages;
  pages.reserve(staging->staged.size());
  for (const auto& [key, loc] : staging->staged) AppendRunPages(loc, &pages);
  pager_->ReleasePages(pages);
  staging->staged.clear();
  staging->dropped.clear();
}

// ---- lookup ----

Result<DataCube> TemporalIndex::ReadCube(const CatalogSnapshot& snapshot,
                                         const CubeKey& key,
                                         IoStats* io) const {
  std::optional<CubeLoc> loc = snapshot.LocOf(key);
  if (!loc.has_value()) {
    return Status::NotFound("no cube for " + key.ToString());
  }
  RASED_ASSIGN_OR_RETURN(EncodedCubeBatch blob, ReadLocs({&*loc, 1}, io));
  return blob.Decode(0);
}

Result<EncodedCubeBatch> TemporalIndex::ReadCubes(
    const CatalogSnapshot& snapshot, std::span<const CubeKey> keys,
    IoStats* io) const {
  // Resolve every key up front against the pinned version so a missing
  // cube fails before any device time is charged.
  std::vector<CubeLoc> locs(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    std::optional<CubeLoc> loc = snapshot.LocOf(keys[i]);
    if (!loc.has_value()) {
      return Status::NotFound("no cube for " + keys[i].ToString());
    }
    locs[i] = *loc;
  }
  return ReadLocs(locs, io);
}

Result<EncodedCubeBatch> TemporalIndex::ReadLocs(std::span<const CubeLoc> locs,
                                                 IoStats* io) const {
  size_t total_pages = 0;
  for (const CubeLoc& loc : locs) total_pages += loc.num_pages;

  // Lay the cubes' page runs out back to back in the arena, cube-major:
  // each cube's pages are physically consecutive, so its whole blob lands
  // contiguous at a known offset. Offsets stay 8-byte aligned because the
  // payload is a multiple of 8.
  const size_t payload = pager_->payload_size();
  EncodedCubeBatch batch(options_.schema, locs.size(),
                         total_pages * payload);
  if (locs.empty()) return batch;
  std::vector<PageId> pages;
  pages.reserve(total_pages);
  std::vector<size_t> offsets(locs.size(), 0);
  for (size_t i = 0; i < locs.size(); ++i) {
    offsets[i] = pages.size() * payload;
    AppendRunPages(locs[i], &pages);
  }
  RASED_RETURN_IF_ERROR(pager_->ReadPages(pages, batch.arena(), io));
  for (size_t i = 0; i < locs.size(); ++i) {
    RASED_RETURN_IF_ERROR(batch.BindEncoded(i, offsets[i], locs[i].blob_bytes,
                                            locs[i].encoding));
  }
  if (metrics_.cube_reads != nullptr) {
    metrics_.cube_reads->Increment(locs.size());
  }
  return batch;
}

// ---- maintenance ----

Status TemporalIndex::AppendDay(Date day, const DataCube& cube) {
  return AppendDay(day, SparseCube::FromDense(cube));
}

Status TemporalIndex::AppendDay(Date day, const SparseCube& cube) {
  if (!(cube.schema() == options_.schema)) {
    return Status::InvalidArgument("cube schema mismatch");
  }
  MutexLock lock(&maint_mu_);
  Staging staging;
  staging.base = Current();
  if (staging.base->last_day.has_value() &&
      day != staging.base->last_day->next()) {
    return Status::InvalidArgument(
        StrFormat("AppendDay(%s) out of order; expected %s",
                  day.ToString().c_str(),
                  staging.base->last_day->next().ToString().c_str()));
  }
  staging.first_day =
      staging.base->first_day.has_value() ? staging.base->first_day : day;
  staging.last_day = day;

  // Stage the day, then boundary rollups. `latest` is the most recently
  // built cube, so each parent reads only the children it does not
  // already hold in memory, matching the paper's I/O counts (Section
  // VI-A). Nothing here is visible to readers yet.
  auto stage_all = [&]() -> Status {
    RASED_RETURN_IF_ERROR(StageCube(&staging, CubeKey::Daily(day), cube));
    CubeKey latest_key = CubeKey::Daily(day);
    const SparseCube* latest = &cube;
    SparseCube built(options_.schema);  // owns `latest` once a rollup ran

    auto rollup = [&](const CubeKey& key) -> Status {
      RASED_ASSIGN_OR_RETURN(
          SparseCube parent,
          BuildFromChildren(staging, key, &latest_key, latest));
      RASED_RETURN_IF_ERROR(StageCube(&staging, key, parent));
      latest_key = key;
      built = std::move(parent);
      latest = &built;
      return Status::OK();
    };
    if (day.is_week_end() && LevelEnabled(Level::kWeekly)) {
      RASED_RETURN_IF_ERROR(rollup(CubeKey::Weekly(day)));
    }
    if (day.is_month_end() && LevelEnabled(Level::kMonthly)) {
      RASED_RETURN_IF_ERROR(rollup(CubeKey::Monthly(day)));
    }
    if (day.is_year_end() && LevelEnabled(Level::kYearly)) {
      RASED_RETURN_IF_ERROR(rollup(CubeKey::Yearly(day)));
    }
    return Status::OK();
  };
  Status staged = stage_all();
  if (!staged.ok()) {
    AbandonStaging(&staging);
    return staged;
  }
  PublishLocked(&staging);
  if (metrics_.days_appended != nullptr) metrics_.days_appended->Increment();
  UpdateStorageMetrics();
  return Status::OK();
}

Status TemporalIndex::RebuildMonth(Date month_start,
                                   const std::vector<DataCube>& cubes) {
  std::vector<SparseCube> sparse;
  sparse.reserve(cubes.size());
  for (const DataCube& cube : cubes) {
    sparse.push_back(SparseCube::FromDense(cube));
  }
  return RebuildMonth(month_start, sparse);
}

Status TemporalIndex::RebuildMonth(Date month_start,
                                   const std::vector<SparseCube>& cubes) {
  if (!month_start.is_month_start()) {
    return Status::InvalidArgument("RebuildMonth expects the month's first day");
  }
  int dim = month_start.days_in_month();
  if (static_cast<int>(cubes.size()) != dim) {
    return Status::InvalidArgument(
        StrFormat("month %s has %d days; got %zu cubes",
                  month_start.ToString().c_str(), dim, cubes.size()));
  }
  for (int d = 0; d < dim; ++d) {
    if (!(cubes[d].schema() == options_.schema)) {
      return Status::InvalidArgument("cube schema mismatch");
    }
  }
  MutexLock lock(&maint_mu_);
  Staging staging;
  staging.base = Current();
  staging.first_day = staging.base->first_day;
  staging.last_day = staging.base->last_day;

  // The month must already be covered by daily maintenance.
  Date month_end = month_start.month_end();
  if (!CatalogSnapshot(staging.base)
           .coverage()
           .Contains(DateRange(month_start, month_end))) {
    return Status::InvalidArgument("month not covered by the index yet");
  }

  auto stage_all = [&]() -> Status {
    // Replacement daily cubes. The monthly UpdateList was scanned
    // upstream; here only the write I/O shows up, as in the paper's
    // offline rebuild. Readers pinned to the base version keep reading
    // the old pages — replacements go to fresh pages.
    for (int d = 0; d < dim; ++d) {
      RASED_RETURN_IF_ERROR(StageCube(
          &staging, CubeKey::Daily(month_start.AddDays(d)), cubes[d]));
    }

    // Rebuild weekly cubes in memory from the supplied dailies; the
    // monthly sums the weeklies (or the first 28 days) plus the rest.
    std::vector<SparseCube> weeks;
    std::vector<const SparseCube*> month_parts;
    if (LevelEnabled(Level::kWeekly)) {
      weeks.reserve(4);
      for (int w = 0; w < 4; ++w) {
        const SparseCube* days[7];
        for (int i = 0; i < 7; ++i) days[i] = &cubes[7 * w + i];
        weeks.push_back(SparseCube::Merge(options_.schema, days));
        RASED_RETURN_IF_ERROR(StageCube(
            &staging, CubeKey{Level::kWeekly, month_start.AddDays(7 * w)},
            weeks.back()));
        month_parts.push_back(&weeks.back());
      }
    } else {
      for (int d = 0; d < 28; ++d) month_parts.push_back(&cubes[d]);
    }
    for (int d = 28; d < dim; ++d) month_parts.push_back(&cubes[d]);
    CubeKey monthly_key = CubeKey::Monthly(month_start);
    if (LevelEnabled(Level::kMonthly) &&
        StagedLocOf(staging, monthly_key).has_value()) {
      RASED_RETURN_IF_ERROR(StageCube(
          &staging, monthly_key,
          SparseCube::Merge(options_.schema, month_parts)));
    }

    // If the containing year is closed, refresh the yearly cube from its
    // twelve monthlies (the staged monthly resolves staged-first).
    CubeKey yearly = CubeKey::Yearly(month_start);
    if (LevelEnabled(Level::kYearly) &&
        StagedLocOf(staging, yearly).has_value()) {
      RASED_ASSIGN_OR_RETURN(
          SparseCube year_cube,
          BuildFromChildren(staging, yearly, nullptr, nullptr));
      RASED_RETURN_IF_ERROR(StageCube(&staging, yearly, year_cube));
    }
    return Status::OK();
  };
  Status staged = stage_all();
  if (!staged.ok()) {
    AbandonStaging(&staging);
    return staged;
  }
  PublishLocked(&staging);
  if (metrics_.month_rebuilds != nullptr) metrics_.month_rebuilds->Increment();
  UpdateStorageMetrics();
  return Status::OK();
}

IndexStorageStats TemporalIndex::StorageStats() const {
  IndexStorageStats stats = Snapshot().StorageStats();
  stats.file_bytes =
      (pager_->num_pages() + 1) * pager_->page_size();  // +1 header page
  return stats;
}

}  // namespace rased
