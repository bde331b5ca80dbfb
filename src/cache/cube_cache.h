#ifndef RASED_CACHE_CUBE_CACHE_H_
#define RASED_CACHE_CUBE_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cube/cube_codec.h"
#include "cube/data_cube.h"
#include "index/temporal_index.h"
#include "index/temporal_key.h"
#include "obs/metrics_registry.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace rased {

/// How the cache decides what lives inside its byte budget.
enum class CachePolicy {
  /// The paper's strategy (Section VII-A): hold the most recent cubes
  /// level by level, giving each level its (beta, gamma, theta) share of
  /// the byte budget and the remainder to daily. Only Warm changes the
  /// contents; nothing is admitted or evicted at query time.
  kRasedRecency = 0,
  /// Classic LRU admission/eviction on the query path (ablation baseline).
  kLru = 1,
  /// Recency preload of daily cubes only (alpha = 1), the degenerate
  /// configuration Section VII-B's example warns about.
  kAllDaily = 2,
};

struct CacheOptions {
  /// Cache capacity in bytes of resident memory — the paper's 2 GB
  /// deployment figure (Section VII-A). Every entry is charged the heap it
  /// holds (CubeCache::EntryBytes): its resident blob's body — sparse COO
  /// or dense — plus the fixed per-entry bookkeeping. Sparse encoding
  /// therefore directly multiplies how many cubes the same budget holds.
  uint64_t byte_budget = uint64_t{2} << 30;

  /// Per-level byte shares for kRasedRecency; must sum to ~1. Defaults
  /// are the deployment values of Section VIII.
  double alpha = 0.4;   // daily
  double beta = 0.35;   // weekly
  double gamma = 0.2;   // monthly
  double theta = 0.05;  // yearly

  CachePolicy policy = CachePolicy::kRasedRecency;

  /// When non-null, the cache registers live rased_cache_* counters and
  /// gauges here at construction (hits/misses/admissions/evictions/
  /// preloads, resident cubes/bytes, budget). The registry must outlive
  /// the cache.
  MetricsRegistry* metrics = nullptr;

  /// Budget with guaranteed room for `cubes` cubes of any encoding — the
  /// conversion helper for configurations historically expressed in
  /// slots. Charges each cube as a dense entry, the largest resident form.
  static uint64_t BytesForCubes(size_t cubes, const CubeSchema& schema);
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t preloaded = 0;  // cubes Warm admitted
  uint64_t evictions = 0;
};

/// In-memory cube cache standing between the query executor and the index
/// pager (Section VII-A). Lookups are zero-I/O; the executor charges disk
/// cost only for misses.
///
/// Resident form: entries hold the cube's encoded blob, never a decoded
/// DataCube: sparse COO and dense bodies stay exactly as read
/// (EncodedCubeBatch::Extract). Hits and misses therefore aggregate
/// through the same AccumulateEncodedSlice kernels, and the byte budget
/// charges the heap an entry really holds.
///
/// Threading contract: CubeCache is internally synchronized. Lookups,
/// inserts, warming, and stats are safe from any number of dashboard
/// worker threads concurrently; Warm calls must not overlap each other
/// (Rased runs them under its writer mutex). Entries are immutable once
/// admitted and handed out as shared_ptr, so a reader keeps its blob alive
/// even if an LRU eviction or a Warm drops the entry mid-read. Warm pins
/// one catalog snapshot and refreshes against it without blocking readers
/// or writers (its reads charge the pager like any query's).
///
/// MVCC validation: every entry remembers the page its cube was read
/// from, and lookups treat the page id as the entry's version: a lookup
/// hits only when the caller's snapshot resolves the key to the same page,
/// so a cube cached under a retired epoch can never serve a query pinned
/// to a newer one (RebuildMonth always stages replacement cubes to fresh
/// pages). Entries for untouched keys keep their page across publications
/// and keep hitting — no blanket invalidation on epoch bumps.
class CubeCache {
 public:
  explicit CubeCache(const CacheOptions& options);

  /// Idempotent refresh against one pinned snapshot of `index`'s current
  /// version (always the same index); Rased runs it after every
  /// publication. Recency policies: the cache then holds exactly what a
  /// Warm of a freshly opened copy would pick — per level, newest first,
  /// what fits the level's byte share. Entries selected at the same page
  /// keep their blob, the rest are dropped, and only the missing cubes
  /// are read. kLru (fills on demand): reads nothing, only drops entries
  /// whose key moved to another page. Queries keep running throughout.
  Status Warm(const TemporalIndex* index) RASED_EXCLUDES(mu_);

  /// The hot-path lookup: the resident blob cached from `page` (the
  /// caller's snapshot resolution of `key`), or nullptr. Counts a hit or
  /// miss; for kLru a hit is refreshed. A page mismatch counts as a miss
  /// and leaves the entry in place — a reader pinned to the entry's own
  /// version can still hit it. The blob stays valid after eviction.
  std::shared_ptr<const EncodedCube> FindEncoded(const CubeKey& key,
                                                 PageId page)
      RASED_EXCLUDES(mu_);

  /// The decoding lookup for callers outside the query path: FindEncoded,
  /// then a fresh dense DataCube decoded from the blob (nullptr on a miss
  /// or a corrupt blob). Every call pays a full decode; the query executor
  /// never uses it.
  std::shared_ptr<const DataCube> Find(const CubeKey& key, PageId page)
      RASED_EXCLUDES(mu_);

  /// Hands a blob fetched from `page` to the cache, in its resident form
  /// (EncodedCubeBatch::Extract). Only the kLru policy admits it (the
  /// paper's static policy never changes at query time); the entry is
  /// charged EntryBytes of its body.
  void Insert(const CubeKey& key, PageId page,
              std::shared_ptr<const EncodedCube> cube) RASED_EXCLUDES(mu_);

  /// Whether Insert can ever admit (true only for kLru). Lets the executor
  /// skip extracting cache copies entirely under the static policies.
  bool AdmitsOnQuery() const {
    return options_.policy == CachePolicy::kLru;
  }

  /// Page-validated membership test (the optimizer's IsCached probe).
  bool Contains(const CubeKey& key, PageId page) const RASED_EXCLUDES(mu_);

  /// Heap bytes one entry holding a `body_bytes` resident body charges:
  /// the body's 8-byte words, plus the shared EncodedCube with its
  /// control block, the hash-map node and bucket slot, and an LRU list
  /// node (libstdc++ layouts; static-policy entries are overcharged by
  /// that one list node).
  static uint64_t EntryBytes(size_t body_bytes);

  size_t size() const RASED_EXCLUDES(mu_);
  /// Resident bytes currently charged against the budget.
  uint64_t bytes_used() const RASED_EXCLUDES(mu_);
  const CacheOptions& options() const { return options_; }
  CacheStats stats() const RASED_EXCLUDES(mu_);

 private:
  /// Stores `cube` under `key`, replacing any entry there and evicting
  /// least-recently-used entries until `bytes` fits.
  void Admit(const CubeKey& key, PageId page, uint64_t bytes,
             std::shared_ptr<const EncodedCube> cube) RASED_REQUIRES(mu_);
  /// Mirrors entries_ into the resident gauges after entry surgery.
  void PublishResidentLocked() RASED_REQUIRES(mu_);

  const CacheOptions options_;  // immutable after construction

  /// Registry handles (all set together in the constructor when
  /// options_.metrics is non-null, else all null). The counters update
  /// lock-free; the resident gauge is set under mu_ right after entry
  /// surgery so it always mirrors entries_.size().
  struct CacheMetrics {
    Counter* hits = nullptr;
    Counter* misses = nullptr;
    Counter* admissions = nullptr;
    Counter* evictions = nullptr;
    Counter* preloads = nullptr;
    Gauge* resident = nullptr;        // cubes
    Gauge* resident_bytes = nullptr;  // resident bytes charged
    Gauge* budget_bytes = nullptr;    // configured byte budget
  };
  CacheMetrics metrics_ RASED_CONST_AFTER_INIT;

  /// Guards every mutable member below. Held only for map/list surgery,
  /// never across index I/O (Warm reads a batch first, then locks to
  /// admit it), so worker threads contend only on pointer-sized critical
  /// sections.
  mutable Mutex mu_;

  CacheStats stats_ RASED_GUARDED_BY(mu_);

  // Entry storage. lru_list_ is maintained only under the kLru policy.
  // Blobs are shared_ptr<const> so hits escape the lock safely.
  struct Entry {
    std::shared_ptr<const EncodedCube> cube;
    /// Page the cube was read from — the entry's version for MVCC
    /// validation.
    PageId page = kInvalidPageId;
    /// Resident bytes this entry charges against the byte budget.
    uint64_t bytes = 0;
    /// Position in lru_list_ (kLru only; every kLru entry has one).
    std::list<CubeKey>::iterator lru_it;
  };
  using EntryMap = std::unordered_map<CubeKey, Entry, CubeKeyHash>;
  EntryMap entries_ RASED_GUARDED_BY(mu_);
  /// Uncharges and erases `it`, moving its blob to `dropped` for the
  /// caller to release after unlocking; returns the next entry.
  EntryMap::iterator DropLocked(
      EntryMap::iterator it,
      std::vector<std::shared_ptr<const EncodedCube>>* dropped)
      RASED_REQUIRES(mu_);
  std::list<CubeKey> lru_list_ RASED_GUARDED_BY(mu_);  // front = most recent
  /// Sum of entries_[*].bytes — the budget charge.
  uint64_t bytes_used_ RASED_GUARDED_BY(mu_) = 0;
};

}  // namespace rased

#endif  // RASED_CACHE_CUBE_CACHE_H_
