#ifndef RASED_INDEX_TEMPORAL_INDEX_H_
#define RASED_INDEX_TEMPORAL_INDEX_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cube/cube_codec.h"
#include "cube/data_cube.h"
#include "index/temporal_key.h"
#include "io/pager.h"
#include "obs/metrics_registry.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace rased {

/// Configuration of a TemporalIndex.
struct TemporalIndexOptions {
  CubeSchema schema;

  /// Number of hierarchy levels kept: 1 = flat daily-only index (the
  /// RASED-F baseline of Figure 9), 2 = +weekly, 3 = +monthly,
  /// 4 = +yearly (full RASED, Figure 8's chosen configuration).
  int num_levels = 4;

  /// Directory holding the page file and catalog; created if missing.
  std::string dir;

  /// Device cost model applied to every cube page transfer.
  DeviceModel device;

  /// When non-null, the index registers live rased_index_* metrics here
  /// (cube reads/appends, per-level cube gauges, file bytes, epoch and
  /// retired-version gauges) and wires its pager's
  /// rased_pager_*{file="index"} counters. Must outlive the index.
  MetricsRegistry* metrics = nullptr;

  /// Write-time cube encoding selection (cube/cube_codec.h). kAdaptive
  /// (default) picks per cube by density and stores blobs across small
  /// fixed-size pages; kForceDense stores every cube dense under the same
  /// page geometry — the like-for-like baseline bench_cube_compression
  /// measures against. Applies only to Create(); Open() reads whatever
  /// geometry the file has, and per-cube encodings are always honored
  /// from the catalog.
  CubeEncodingPolicy encoding = CubeEncodingPolicy::kAdaptive;
};

/// Per-level node counts and storage, for the paper's Section VI-A index
/// size accounting and Figure 8.
struct IndexStorageStats {
  uint64_t cubes_per_level[kNumLevels] = {0, 0, 0, 0};
  uint64_t total_cubes = 0;
  uint64_t file_bytes = 0;
  /// Sum of the exact serialized cube blob lengths recorded in the
  /// catalog — the compressed payload size, excluding page padding.
  uint64_t encoded_bytes = 0;
};

/// Physical location and encoding metadata of one stored cube, the value
/// type of the catalog's per-level maps. A cube blob occupies `num_pages`
/// physically consecutive pages starting at `first_page`; `blob_bytes` is
/// its exact serialized length (RCUB header + body).
struct CubeLoc {
  PageId first_page = kInvalidPageId;
  uint32_t num_pages = 1;
  CubeEncoding encoding = CubeEncoding::kDenseRaw;
  uint64_t blob_bytes = 0;
};

/// One immutable published catalog version (MVCC). A version maps cube
/// keys to pages via one chronologically ordered map per level; untouched
/// levels share their map with the previous version (copy-on-write), so a
/// publication copies only the levels it changed. Once published, a
/// CatalogVersion is never mutated — readers pin it by shared_ptr and the
/// last release makes it reclaimable.
struct CatalogVersion {
  using LevelMap = std::map<Date, CubeLoc>;

  /// Monotonic publication counter, starting at 1 for the empty catalog a
  /// fresh index publishes on Create. Every AppendDay/RebuildMonth
  /// publishes exactly one new version (all of its rollups in one swap).
  uint64_t epoch = 0;

  /// Per-level key -> page maps; null entries behave as empty.
  std::shared_ptr<const LevelMap> levels[kNumLevels];

  /// Days covered by this version ([first appended, last appended]).
  std::optional<Date> first_day;
  std::optional<Date> last_day;
};

/// A pinned, consistent view of the catalog: the version the reader
/// started on, held alive by refcount. All lookups against a snapshot are
/// pure reads of immutable data — no locks, no coordination with writers.
///
/// Keep snapshots stack-scoped (a local pinned for one query/warm pass).
/// Storing one in a member field keeps the whole version — and every page
/// it references — unreclaimable for the holder's lifetime; rased-lint
/// RL012 flags that.
class CatalogSnapshot {
 public:
  /// Unpinned snapshot: epoch 0, empty catalog. Real snapshots come from
  /// TemporalIndex::Snapshot().
  CatalogSnapshot() = default;

  explicit CatalogSnapshot(std::shared_ptr<const CatalogVersion> version)
      : version_(std::move(version)) {}

  uint64_t epoch() const { return version_ == nullptr ? 0 : version_->epoch; }

  bool Contains(const CubeKey& key) const {
    return PageOf(key).has_value();
  }

  /// Full location (pages, encoding, exact length) of `key`'s cube in
  /// this version, if present.
  std::optional<CubeLoc> LocOf(const CubeKey& key) const;

  /// First page holding `key`'s cube in this version, if present. Also
  /// the cache's page-validation token: a key re-staged by maintenance
  /// lands on a different first page, so stale entries never match.
  std::optional<PageId> PageOf(const CubeKey& key) const;

  /// Exact serialized length of `key`'s cube (what a byte-budgeted cache
  /// charges for it), if present.
  std::optional<uint64_t> EncodedBytesOf(const CubeKey& key) const;

  /// Keys of `level` fully inside `range` that exist in this version.
  std::vector<CubeKey> ExistingKeys(Level level, const DateRange& range) const;

  /// The most recent `n` keys of a level (newest last), for cache warmup.
  std::vector<CubeKey> LatestKeys(Level level, size_t n) const;

  /// Walks the keys of `level` newest first with their locations, calling
  /// visit(key, loc) until it returns false. One pass over the level's
  /// map: no key is looked up again.
  template <typename Visit>
  void ForEachNewest(Level level, Visit&& visit) const {
    if (version_ == nullptr) return;
    const auto& map = version_->levels[static_cast<int>(level)];
    if (map == nullptr) return;
    for (auto it = map->rbegin(); it != map->rend(); ++it) {
      if (!visit(CubeKey{level, it->first}, it->second)) return;
    }
  }

  /// Days covered by this version ([first appended, last appended]).
  DateRange coverage() const;

  /// Per-level cube counts and encoded byte totals of this version
  /// (file_bytes left 0; the index fills it in from its pager).
  IndexStorageStats StorageStats() const;

 private:
  std::shared_ptr<const CatalogVersion> version_;
};

/// The hierarchical temporal index (Section VI-A, Figure 6): daily cubes
/// chained under weekly, monthly, and yearly aggregate cubes, all stored as
/// fixed-size pages behind a Pager. The index stores *precomputed
/// statistics* (data cubes), never raw updates.
///
/// Maintenance follows the paper:
///  * AppendDay writes the day's cube; on week/month/year boundaries the
///    parent cubes are built by reading the children back from disk and
///    summing them (their I/O cost is therefore visible in pager stats).
///  * RebuildMonth re-derives a whole month's daily/weekly/monthly (and,
///    if closed, yearly) cubes from monthly-crawler data that carries the
///    full four-way UpdateType classification.
/// Both stage, merge and encode cubes in the sparse write form
/// (cube/sparse_cube.h), so their work tracks the updates, not the cube
/// width; the DataCube overloads convert once and take the same path.
///
/// Threading contract (MVCC): const means thread-safe AND never waiting on
/// maintenance work. The catalog is published as immutable versions
/// behind one pointer slot whose lock is held only to copy or swap the
/// pointer; Snapshot() pins the current version and every read (Contains,
/// ReadCube(s), ExistingKeys, LatestKeys, coverage, StorageStats) resolves
/// against a pinned version, so readers never block on — or observe a
/// torn state from — maintenance. Maintenance
/// (AppendDay, RebuildMonth) is serialized internally by a maintenance
/// mutex: it stages new cube pages off to the side (fresh pages only —
/// pages reachable from any published version are never overwritten), then
/// publishes a single new version covering the day AND all of its rollups
/// in one pointer swap. Versions displaced by a publication are retired in
/// order; once the last snapshot pinning a retired version drains
/// (refcount), its dropped pages return to the pager's free pool for
/// reuse. No external serialization is needed for any combination of
/// readers and writers; direct pager() page mutation remains outside the
/// contract.
class TemporalIndex {
 public:
  /// Creates a fresh index in options.dir (fails if one already exists).
  static Result<std::unique_ptr<TemporalIndex>> Create(
      const TemporalIndexOptions& options);

  /// Opens an existing index; options.schema/num_levels must match what
  /// the catalog records.
  static Result<std::unique_ptr<TemporalIndex>> Open(
      const TemporalIndexOptions& options);

  TemporalIndex(const TemporalIndex&) = delete;
  TemporalIndex& operator=(const TemporalIndex&) = delete;

  ~TemporalIndex();

  // ---- maintenance ----

  /// Appends one day's cube. Days must arrive in strictly increasing
  /// consecutive order starting from the first day ever appended; gaps are
  /// InvalidArgument (RASED crawls every day). Publishes exactly one new
  /// catalog version covering the day and its boundary rollups.
  Status AppendDay(Date day, const SparseCube& cube)
      RASED_EXCLUDES(maint_mu_);
  Status AppendDay(Date day, const DataCube& cube) RASED_EXCLUDES(maint_mu_);

  /// Replaces the daily cubes of `month` (the cubes vector holds one cube
  /// per day of the month, in order) and rebuilds every affected ancestor,
  /// mirroring the monthly-crawler maintenance path (Section VI-A). The
  /// whole rebuild lands in one published version; readers pinned to the
  /// old version keep reading the old pages.
  Status RebuildMonth(Date month_start, const std::vector<SparseCube>& cubes)
      RASED_EXCLUDES(maint_mu_);
  Status RebuildMonth(Date month_start, const std::vector<DataCube>& cubes)
      RASED_EXCLUDES(maint_mu_);

  // ---- snapshots ----

  /// Pins the currently published catalog version. O(1): one lock held
  /// for a pointer copy, never across maintenance work. The snapshot
  /// stays valid (and its pages unreclaimed) until the last copy is
  /// destroyed — keep it stack-scoped.
  CatalogSnapshot Snapshot() const;

  /// Epoch of the currently published version.
  uint64_t epoch() const { return Snapshot().epoch(); }

  /// Retired versions not yet reclaimed (still pinned by some snapshot,
  /// or queued behind one that is).
  size_t retired_versions() const RASED_EXCLUDES(maint_mu_);

  // ---- lookup ----

  /// Reads one cube of `snapshot`'s version from disk through the pager.
  /// The transfer is charged to the pager's global counters and, when `io`
  /// is non-null, to the caller's per-call accounting (how each query
  /// accumulates its own deterministic I/O cost under concurrency).
  Result<DataCube> ReadCube(const CatalogSnapshot& snapshot,
                            const CubeKey& key, IoStats* io = nullptr) const;

  /// Batched read against `snapshot`: fetches the page runs of all of
  /// `keys` in one Pager::ReadPages call, which sorts by page id and
  /// coalesces runs of physically adjacent pages (a cube's own pages are
  /// consecutive by construction, and consecutive daily cubes land on
  /// adjacent runs) into single large device reads. The returned batch
  /// holds the *encoded* cubes in key input order; aggregation streams
  /// them into the packed accumulator without dense materialization
  /// (EncodedCubeBatch::AccumulateSlice). Fails NotFound if any key is
  /// missing (resolved before any I/O is issued).
  ///
  /// Accounting matches the serial path transfer-for-transfer — identical
  /// page_reads/bytes_read — while read_ops and simulated device time
  /// shrink with coalescing (see Pager::ReadPages).
  Result<EncodedCubeBatch> ReadCubes(const CatalogSnapshot& snapshot,
                                     std::span<const CubeKey> keys,
                                     IoStats* io = nullptr) const;

  // Conveniences that pin the current version for one call. Multi-step
  // callers (plan, then probe, then fetch) must pin one Snapshot() and
  // pass it to every step, or the steps may observe different epochs.
  bool Contains(const CubeKey& key) const {
    return Snapshot().Contains(key);
  }
  Result<DataCube> ReadCube(const CubeKey& key, IoStats* io = nullptr) const {
    return ReadCube(Snapshot(), key, io);
  }
  Result<EncodedCubeBatch> ReadCubes(std::span<const CubeKey> keys,
                                     IoStats* io = nullptr) const {
    return ReadCubes(Snapshot(), keys, io);
  }
  std::vector<CubeKey> ExistingKeys(Level level, const DateRange& range) const {
    return Snapshot().ExistingKeys(level, range);
  }
  std::vector<CubeKey> LatestKeys(Level level, size_t n) const {
    return Snapshot().LatestKeys(level, n);
  }

  // ---- accounting ----

  /// Days covered so far ([first appended, last appended]).
  DateRange coverage() const { return Snapshot().coverage(); }

  IndexStorageStats StorageStats() const;

  const TemporalIndexOptions& options() const { return options_; }
  Pager* pager() { return pager_.get(); }
  const Pager* pager() const { return pager_.get(); }

  /// Makes the pages durable, then persists the catalog (current version
  /// only; free pages are reconstructed on Open); called automatically on
  /// destruction.
  Status Sync();

 private:
  /// Private staging view of one maintenance pass: new cube pages written
  /// off to the side, invisible to readers until the single publication.
  struct Staging {
    std::shared_ptr<const CatalogVersion> base;
    std::map<CubeKey, CubeLoc> staged;
    /// Base pages (all pages of each replaced cube's run) released to the
    /// pager's free pool once the base version drains.
    std::vector<PageId> dropped;
    std::optional<Date> first_day;
    std::optional<Date> last_day;
  };

  /// One retired version awaiting drain, in retirement order.
  struct RetiredVersion {
    std::shared_ptr<const CatalogVersion> version;
    std::vector<PageId> dropped;
  };

  TemporalIndex(TemporalIndexOptions options, std::unique_ptr<Pager> pager);

  bool LevelEnabled(Level level) const {
    return static_cast<int>(level) < options_.num_levels;
  }

  /// Encodes `cube` (per options_.encoding), writes the blob to a fresh
  /// run of consecutive pages (never overwriting a published page), and
  /// records its CubeLoc in the staging map. If the key shadows a base
  /// cube, all pages of that cube's run join staging.dropped. The one
  /// staging path of every maintenance pass.
  Status StageCube(Staging* staging, const CubeKey& key,
                   const SparseCube& cube);

  /// Resolves `key` staged-first, then against the staging's base version.
  std::optional<CubeLoc> StagedLocOf(const Staging& staging,
                                     const CubeKey& key) const;

  /// Builds a parent cube by reading each existing child (staged or base)
  /// from disk and merging them in one k-way pass. `in_memory_*`
  /// (optional) supplies one child already in memory so the paper's "read
  /// the six previous cubes" I/O pattern is preserved.
  Result<SparseCube> BuildFromChildren(const Staging& staging,
                                       const CubeKey& parent,
                                       const CubeKey* in_memory_key,
                                       const SparseCube* in_memory_cube) const;

  /// Reads the page runs of `locs` in one Pager::ReadPages call and binds
  /// each blob (EncodedCubeBatch::BindEncoded checks its header against
  /// the catalog). Every cube read — batched, single or rollup child —
  /// goes through here.
  Result<EncodedCubeBatch> ReadLocs(std::span<const CubeLoc> locs,
                                    IoStats* io) const;

  /// Builds the next version from `staging` (copy-on-write per level),
  /// swaps it in, retires the base version, and runs a reclamation sweep.
  void PublishLocked(Staging* staging) RASED_REQUIRES(maint_mu_);
  std::shared_ptr<const CatalogVersion> Current() const
      RASED_EXCLUDES(current_mu_);
  void SetCurrent(std::shared_ptr<const CatalogVersion> next)
      RASED_EXCLUDES(current_mu_);

  /// Pops drained versions off the front of the retirement queue,
  /// releasing their dropped pages. Front-gated: a version's pages are
  /// released only after every earlier retired version also drained, so a
  /// page shared backward through history is never freed while any older
  /// pinned version can still reach it.
  void ReclaimRetiredLocked() RASED_REQUIRES(maint_mu_);

  /// Returns staging's freshly written pages to the free pool (failure
  /// path: nothing was published, so nobody can reference them).
  void AbandonStaging(Staging* staging);

  Status SaveCatalog();
  static std::string CatalogPath(const std::string& dir);
  static std::string PagesPath(const std::string& dir);

  /// Refreshes the per-level cube gauges, the file-bytes gauge, and the
  /// epoch gauge from the current version. No-op when options_.metrics is
  /// null.
  void UpdateStorageMetrics() const;

  TemporalIndexOptions options_ RASED_CONST_AFTER_INIT;

  /// Registry handles (all set together in the constructor when
  /// options_.metrics is non-null, else all null).
  struct IndexMetrics {
    Counter* cube_reads = nullptr;      // cubes fetched from disk
    Counter* days_appended = nullptr;   // AppendDay completions
    Counter* month_rebuilds = nullptr;  // RebuildMonth completions
    Counter* publications = nullptr;    // catalog versions published
    Gauge* cubes_per_level[kNumLevels] = {nullptr, nullptr, nullptr, nullptr};
    Gauge* file_bytes = nullptr;
    Gauge* epoch = nullptr;             // current published epoch
    Gauge* retired = nullptr;           // retired versions awaiting drain
  };
  IndexMetrics metrics_ RASED_CONST_AFTER_INIT;

  // Page reads are pager-internal-atomic-safe from any thread; page
  // writes only ever target freshly allocated pages (staging), so they
  // never race a reader of a published page.
  std::unique_ptr<Pager> pager_ RASED_CONST_AFTER_INIT;

  /// The currently published catalog version. Readers pin it by copying
  /// the pointer under current_mu_ (one lock/unlock per snapshot, never
  /// held across anything else); only maintenance replaces it, under
  /// maint_mu_. A plain mutex rather than std::atomic<std::shared_ptr>:
  /// both TSan and -Wthread-safety check it (DESIGN.md §10).
  mutable Mutex current_mu_;
  std::shared_ptr<const CatalogVersion> current_ RASED_GUARDED_BY(current_mu_);

  /// Serializes maintenance (stage + publish + reclaim) against itself.
  /// Never taken on the read path.
  mutable Mutex maint_mu_;
  std::deque<RetiredVersion> retired_ RASED_GUARDED_BY(maint_mu_);
};

}  // namespace rased

#endif  // RASED_INDEX_TEMPORAL_INDEX_H_
