#ifndef RASED_WAREHOUSE_WAREHOUSE_H_
#define RASED_WAREHOUSE_WAREHOUSE_H_

#include <memory>
#include <cstdint>
#include <string>
#include <vector>

#include "collect/update_record.h"
#include "geo/latlon.h"
#include "io/pager.h"
#include "util/date.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace rased {

struct WarehouseOptions {
  std::string dir;
  DeviceModel device;
  /// Heap page size. 8 KiB holds ~240 records.
  size_t page_size = 8192;
};

/// Filter for sample update queries — the WHERE clause of Section IV-B's
/// sample interface (the same optional IN-lists as analysis queries, plus
/// an optional spatial box). Empty lists/invalid box mean unconstrained.
struct SampleFilter {
  DateRange range;
  std::vector<ElementType> element_types;
  std::vector<ZoneId> countries;
  std::vector<RoadTypeId> road_types;
  std::vector<UpdateType> update_types;

  bool Matches(const UpdateRecord& record) const;
};

/// The UpdateList warehouse (Section VI-B): every tuple dumped into a heap
/// file, indexed by a hash index on ChangesetID and a spatial index on
/// (Latitude, Longitude). It serves the sample update queries that let a
/// RASED user inspect concrete updates behind an aggregate.
///
/// The heap pages live on disk behind a Pager; both indexes are in-memory
/// and rebuilt by scanning the heap on Open (their maintenance cost is
/// part of offline ingestion, not the query path). They are flat arrays
/// over record ordinals — a record's ordinal is its position in the heap,
/// 0 for the oldest — so indexing a record, on append or on open,
/// allocates nothing of its own:
///  * one 24-byte entry per record (its coordinates and the ordinals of
///    the next-older record in its grid cell and in its changeset), in
///    fixed chunks of 2^14 entries that never move;
///  * the spatial index, a uniform 1°×1° grid of 180×360 cell heads, each
///    the newest ordinal in its cell;
///  * the hash index, an open-addressing table from a changeset id to its
///    newest ordinal (16 bytes a slot, at most three quarters used);
///  * the first ordinal of each heap page, which turns an ordinal into its
///    (page, slot) by binary search.
/// So a record costs 24 bytes, and a changeset 21–43 bytes of table. The
/// paper year of 215k records in 71k changesets takes 7.9 MB.
///
/// Threading contract: public operations are internally synchronized by
/// one mutex, which a read holds only to probe the in-memory indexes and
/// copy the unflushed tail page. The page reads run outside it, through
/// the const, thread-safe, CRC-checked Pager::ReadPages, so reads never
/// serialize against each other or against an append's I/O. That is safe
/// because a read only fetches sealed pages (every page but the tail),
/// which are never rewritten; the tail, which Sync rewrites in place, is
/// always served from the copy. The only exception is pager(): reading
/// pager stats while another thread is mid-append is racy; callers wanting
/// exact counts serialize externally, as Rased does.
class Warehouse {
 public:
  static Result<std::unique_ptr<Warehouse>> Create(
      const WarehouseOptions& options);
  static Result<std::unique_ptr<Warehouse>> Open(
      const WarehouseOptions& options);

  Warehouse(const Warehouse&) = delete;
  Warehouse& operator=(const Warehouse&) = delete;
  ~Warehouse();

  /// Appends records to the heap and indexes them. OutOfRange, and
  /// nothing appended, past 2^32 - 1 records.
  Status Append(const std::vector<UpdateRecord>& records)
      RASED_EXCLUDES(mu_);

  /// The newest `n` updates inside the box (via the grid).
  Result<std::vector<UpdateRecord>> SampleInBox(const BoundingBox& box,
                                                size_t n) RASED_EXCLUDES(mu_);

  /// All updates of one changeset (via the hash index), newest first.
  Result<std::vector<UpdateRecord>> FindByChangeset(uint64_t changeset_id)
      RASED_EXCLUDES(mu_);

  /// The newest `n` updates matching the filter, and inside `box` when it
  /// is non-null (the grid narrows the candidates first).
  Result<std::vector<UpdateRecord>> Sample(const SampleFilter& filter,
                                           const BoundingBox* box, size_t n)
      RASED_EXCLUDES(mu_);

  uint64_t num_records() const RASED_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return num_records_;
  }
  Pager* pager() { return pager_.get(); }

  /// Flushes the tail page and heap metadata.
  Status Sync() RASED_EXCLUDES(mu_);

 private:
  /// Ordinals are 32-bit; the largest one ends chains, so the heap holds
  /// at most kNoOrdinal records.
  static constexpr uint32_t kNoOrdinal = UINT32_MAX;
  /// Entries per chunk. Chunks are allocated whole and never move: one
  /// growing array would, at each doubling, hold its old and new copies at
  /// once.
  static constexpr uint32_t kChunkEntries = uint32_t{1} << 14;

  /// A record's index entry, addressed by its ordinal: its coordinates (for
  /// the exact box test) and the ordinals of the next-older record in the
  /// same grid cell and in the same changeset (kNoOrdinal ends a chain).
  struct Entry {
    double lat;
    double lon;
    uint32_t prev_in_cell;
    uint32_t prev_in_changeset;
  };
  /// One slot of the changeset hash table; `newest` is kNoOrdinal in an
  /// empty slot.
  struct ChangesetSlot {
    uint64_t id = 0;
    uint32_t newest = kNoOrdinal;
  };

  /// What a read fetches, captured under mu_: candidate locators in
  /// strictly descending (newest-first) order, and a copy of the unflushed
  /// tail page (slot count included) when a candidate lives on it.
  struct ReadSet {
    std::vector<uint64_t> locators;
    PageId tail_page = kInvalidPageId;
    std::vector<unsigned char> tail;
  };

  Warehouse(WarehouseOptions options, std::unique_ptr<Pager> pager);

  /// Records per heap page; 4 payload bytes hold the page's slot count.
  size_t RecordsPerPage() const {
    return (pager_->payload_size() - 4) / UpdateRecord::kEncodedBytes;
  }
  static uint64_t Locator(PageId page, uint32_t slot) {
    return (page << 16) | slot;
  }
  static PageId PageOf(uint64_t locator) { return locator >> 16; }
  static uint32_t SlotOf(uint64_t locator) {
    return static_cast<uint32_t>(locator & 0xffff);
  }
  Status FlushTail() RASED_REQUIRES(mu_);
  Status RebuildIndexes() RASED_REQUIRES(mu_);
  /// Indexes `record` as ordinal num_records_ and counts it.
  void IndexRecord(const UpdateRecord& record) RASED_REQUIRES(mu_);

  const Entry& EntryAt(uint32_t ordinal) const RASED_REQUIRES(mu_) {
    return chunks_[ordinal / kChunkEntries][ordinal % kChunkEntries];
  }
  /// The heap locator of the record at `ordinal`.
  uint64_t LocatorOf(uint32_t ordinal) const RASED_REQUIRES(mu_);
  /// The changeset table slot that holds `id`, or the empty slot where it
  /// would go.
  size_t ChangesetSlotOf(uint64_t id) const RASED_REQUIRES(mu_);
  /// The newest ordinal of changeset `id`, claiming a slot (kNoOrdinal)
  /// for a new id and doubling the table past three quarters full.
  uint32_t& ChangesetHead(uint64_t id) RASED_REQUIRES(mu_);

  /// Locators of the newest `n` (0 = all) indexed points inside `box`,
  /// newest first.
  std::vector<uint64_t> NewestInBox(const BoundingBox& box, size_t n) const
      RASED_REQUIRES(mu_);
  /// Wraps newest-first `locators` with the tail copy they need.
  ReadSet Capture(std::vector<uint64_t> locators) const RASED_REQUIRES(mu_);
  /// Decodes `set`'s records in order, keeping those that match `filter`
  /// (null = all) until `n` (0 = all) are kept. Sealed pages are fetched
  /// in batches of distinct pages with Pager::ReadPages, without mu_.
  Result<std::vector<UpdateRecord>> Read(const ReadSet& set,
                                         const SampleFilter* filter,
                                         size_t n) const RASED_EXCLUDES(mu_);

  WarehouseOptions options_ RASED_CONST_AFTER_INIT;
  // Appends drive the pager under mu_; reads call only its const,
  // thread-safe ReadPages, outside mu_. The pager() accessor above escapes
  // the lock for stats inspection — see the class threading contract.
  std::unique_ptr<Pager> pager_ RASED_CONST_AFTER_INIT;

  /// Guards the heap tail and the in-memory indexes; never held over a
  /// read's page I/O.
  mutable Mutex mu_;

  uint64_t num_records_ RASED_GUARDED_BY(mu_) = 0;

  // Tail page under construction. Its on-disk image is rewritten by every
  // Sync until the page fills, so reads serve it from a copy of tail_.
  std::vector<unsigned char> tail_ RASED_GUARDED_BY(mu_);
  uint32_t tail_count_ RASED_GUARDED_BY(mu_) = 0;
  PageId tail_page_ RASED_GUARDED_BY(mu_) = kInvalidPageId;

  // In-memory indexes over ordinals 0 .. num_records_ - 1.
  /// Entry of ordinal i: chunks_[i / kChunkEntries][i % kChunkEntries].
  std::vector<std::unique_ptr<Entry[]>> chunks_ RASED_GUARDED_BY(mu_);
  /// Newest ordinal of each of the 180 x 360 cells of 1° x 1°, row-major
  /// from (-90°, -180°).
  std::vector<uint32_t> cell_newest_ RASED_GUARDED_BY(mu_);
  /// Open-addressing (linear probing) hash table, a power of two in size.
  std::vector<ChangesetSlot> changesets_ RASED_GUARDED_BY(mu_);
  size_t num_changesets_ RASED_GUARDED_BY(mu_) = 0;
  /// First ordinal of each heap page (index = page id - 1). A page a crash
  /// left empty shares its successor's first ordinal.
  std::vector<uint32_t> page_first_ RASED_GUARDED_BY(mu_);
};

}  // namespace rased

#endif  // RASED_WAREHOUSE_WAREHOUSE_H_
