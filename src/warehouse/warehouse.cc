#include "warehouse/warehouse.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <queue>
#include <utility>

#include "io/env.h"
#include "util/logging.h"
#include "util/str_util.h"

namespace rased {

namespace {

constexpr int kGridRows = 180;  // 1° of latitude each
constexpr int kGridCols = 360;  // 1° of longitude each

/// Grid row/column of a coordinate, clamped so every point (even an
/// out-of-range or NaN one) lands in some cell and every box maps to a
/// cell range; the exact box test is always applied afterwards.
int GridIndex(double value, double origin, int cells) {
  double index = std::floor(value - origin);
  if (!(index >= 0)) return 0;
  return index >= cells ? cells - 1 : static_cast<int>(index);
}
int GridRow(double lat) { return GridIndex(lat, -90.0, kGridRows); }
int GridCol(double lon) { return GridIndex(lon, -180.0, kGridCols); }
size_t CellOf(int row, int col) {
  return static_cast<size_t>(row) * kGridCols + static_cast<size_t>(col);
}

/// Changeset table slots before the first doubling.
constexpr size_t kInitialChangesetSlots = 1024;

size_t HashChangeset(uint64_t id) {
  // The finalizer of MurmurHash3: sequential ids spread over the table.
  id ^= id >> 33;
  id *= 0xff51afd7ed558ccdull;
  id ^= id >> 33;
  return static_cast<size_t>(id);
}

template <typename T>
bool InListOrEmpty(const std::vector<T>& list, T value) {
  return list.empty() || std::find(list.begin(), list.end(), value) != list.end();
}

}  // namespace

bool SampleFilter::Matches(const UpdateRecord& r) const {
  if (!range.empty() && !range.Contains(r.date)) return false;
  if (!InListOrEmpty(element_types, r.element_type)) return false;
  if (!InListOrEmpty(countries, r.country)) return false;
  if (!InListOrEmpty(road_types, r.road_type)) return false;
  if (!InListOrEmpty(update_types, r.update_type)) return false;
  return true;
}

Warehouse::Warehouse(WarehouseOptions options, std::unique_ptr<Pager> pager)
    : options_(std::move(options)), pager_(std::move(pager)) {
  tail_.assign(pager_->payload_size(), 0);
  MutexLock lock(&mu_);
  cell_newest_.assign(CellOf(kGridRows, 0), kNoOrdinal);
  changesets_.resize(kInitialChangesetSlots);
}

Warehouse::~Warehouse() {
  Status s = Sync();
  if (!s.ok()) RASED_LOG(Warning) << "Warehouse close: " << s.ToString();
}

Result<std::unique_ptr<Warehouse>> Warehouse::Create(
    const WarehouseOptions& options) {
  RASED_RETURN_IF_ERROR(env::CreateDirs(options.dir));
  std::string path = env::JoinPath(options.dir, "warehouse.pages");
  if (env::FileExists(path)) {
    return Status::AlreadyExists("warehouse already exists in " + options.dir);
  }
  auto pager = Pager::Create(path, options.page_size, options.device);
  if (!pager.ok()) return pager.status();
  return std::unique_ptr<Warehouse>(
      new Warehouse(options, std::move(pager).value()));
}

Result<std::unique_ptr<Warehouse>> Warehouse::Open(
    const WarehouseOptions& options) {
  std::string path = env::JoinPath(options.dir, "warehouse.pages");
  auto pager = Pager::Open(path, options.device);
  if (!pager.ok()) return pager.status();
  auto wh = std::unique_ptr<Warehouse>(
      new Warehouse(options, std::move(pager).value()));
  {
    MutexLock lock(&wh->mu_);
    RASED_RETURN_IF_ERROR(wh->RebuildIndexes());
  }
  return wh;
}

Status Warehouse::RebuildIndexes() {
  // Scan every heap page; slot counts are stored in the first 4 payload
  // bytes of each page. Appends after the open start a fresh page, so a
  // partial last page stays partial in the middle of the heap.
  const size_t per_page = RecordsPerPage();
  page_first_.reserve(pager_->num_pages());
  chunks_.reserve(pager_->num_pages() * per_page / kChunkEntries + 1);
  std::vector<unsigned char> buf(pager_->payload_size());
  for (PageId page = 1; page <= pager_->num_pages(); ++page) {
    RASED_RETURN_IF_ERROR(pager_->ReadPage(page, buf.data()));
    uint32_t count;
    std::memcpy(&count, buf.data(), 4);
    if (count > per_page || count > kNoOrdinal - num_records_) {
      return Status::Corruption(
          StrFormat("warehouse page %llu claims %u records after %llu",
                    static_cast<unsigned long long>(page), count,
                    static_cast<unsigned long long>(num_records_)));
    }
    page_first_.push_back(static_cast<uint32_t>(num_records_));
    for (uint32_t slot = 0; slot < count; ++slot) {
      IndexRecord(UpdateRecord::DecodeFrom(
          buf.data() + 4 + slot * UpdateRecord::kEncodedBytes));
    }
  }
  return Status::OK();
}

size_t Warehouse::ChangesetSlotOf(uint64_t id) const {
  const size_t mask = changesets_.size() - 1;
  size_t i = HashChangeset(id) & mask;
  while (changesets_[i].newest != kNoOrdinal && changesets_[i].id != id) {
    i = (i + 1) & mask;
  }
  return i;
}

uint32_t& Warehouse::ChangesetHead(uint64_t id) {
  size_t i = ChangesetSlotOf(id);
  if (changesets_[i].newest == kNoOrdinal) {
    if (4 * (num_changesets_ + 1) > 3 * changesets_.size()) {
      const std::vector<ChangesetSlot> old = std::exchange(
          changesets_, std::vector<ChangesetSlot>(2 * changesets_.size()));
      for (const ChangesetSlot& slot : old) {
        if (slot.newest != kNoOrdinal) {
          changesets_[ChangesetSlotOf(slot.id)] = slot;
        }
      }
      i = ChangesetSlotOf(id);
    }
    changesets_[i].id = id;
    ++num_changesets_;
  }
  return changesets_[i].newest;
}

void Warehouse::IndexRecord(const UpdateRecord& record) {
  const uint32_t ordinal = static_cast<uint32_t>(num_records_);
  if (ordinal % kChunkEntries == 0) {
    chunks_.push_back(std::make_unique_for_overwrite<Entry[]>(kChunkEntries));
  }
  uint32_t& cell =
      cell_newest_[CellOf(GridRow(record.lat), GridCol(record.lon))];
  uint32_t& changeset = ChangesetHead(record.changeset_id);
  chunks_.back()[ordinal % kChunkEntries] =
      Entry{record.lat, record.lon, cell, changeset};
  cell = ordinal;
  changeset = ordinal;
  ++num_records_;
}

uint64_t Warehouse::LocatorOf(uint32_t ordinal) const {
  // The last page whose first ordinal is <= ordinal; upper_bound steps
  // past an empty page, which shares its successor's first ordinal.
  const size_t index = static_cast<size_t>(
      std::upper_bound(page_first_.begin(), page_first_.end(), ordinal) -
      page_first_.begin() - 1);
  return Locator(index + 1, ordinal - page_first_[index]);
}

Status Warehouse::Append(const std::vector<UpdateRecord>& records) {
  MutexLock lock(&mu_);
  if (records.size() > kNoOrdinal - num_records_) {
    return Status::OutOfRange(
        StrFormat("warehouse holds %llu records; %zu more pass its limit %u",
                  static_cast<unsigned long long>(num_records_),
                  records.size(), kNoOrdinal));
  }
  const size_t per_page = RecordsPerPage();
  for (const UpdateRecord& r : records) {
    if (tail_page_ == kInvalidPageId) {
      RASED_ASSIGN_OR_RETURN(tail_page_, pager_->AllocatePage());
      std::fill(tail_.begin(), tail_.end(), 0);
      tail_count_ = 0;
      page_first_.push_back(static_cast<uint32_t>(num_records_));
    }
    r.EncodeTo(tail_.data() + 4 + tail_count_ * UpdateRecord::kEncodedBytes);
    IndexRecord(r);
    ++tail_count_;
    if (tail_count_ == per_page) {
      RASED_RETURN_IF_ERROR(FlushTail());
      tail_page_ = kInvalidPageId;
    }
  }
  return Status::OK();
}

Status Warehouse::FlushTail() {
  if (tail_page_ == kInvalidPageId) return Status::OK();
  std::memcpy(tail_.data(), &tail_count_, 4);
  return pager_->WritePage(tail_page_, tail_.data(), tail_.size());
}

Status Warehouse::Sync() {
  MutexLock lock(&mu_);
  RASED_RETURN_IF_ERROR(FlushTail());
  return pager_->Sync();
}

std::vector<uint64_t> Warehouse::NewestInBox(const BoundingBox& box,
                                             size_t n) const {
  // One cursor per overlapping cell walks its chain newest first; a
  // max-heap of the cursors' ordinals merges the cells, and each popped
  // point is tested against the box. The points visited are the cells'
  // heads and the points newer than the n-th match: a border cell is never
  // walked past that match in search of its own next point in the box.
  std::priority_queue<uint32_t> cursors;
  auto push = [&cursors](uint32_t ordinal) {
    if (ordinal != kNoOrdinal) cursors.push(ordinal);
  };
  for (int row = GridRow(box.min_lat); row <= GridRow(box.max_lat); ++row) {
    for (int col = GridCol(box.min_lon); col <= GridCol(box.max_lon); ++col) {
      push(cell_newest_[CellOf(row, col)]);
    }
  }
  std::vector<uint64_t> out;
  while (!cursors.empty() && (n == 0 || out.size() < n)) {
    const uint32_t top = cursors.top();
    cursors.pop();
    const Entry& e = EntryAt(top);
    if (box.Contains(LatLon{e.lat, e.lon})) out.push_back(LocatorOf(top));
    push(e.prev_in_cell);
  }
  return out;
}

Warehouse::ReadSet Warehouse::Capture(std::vector<uint64_t> locators) const {
  ReadSet set;
  set.locators = std::move(locators);
  // Newest first: only the leading locators can sit on the tail page.
  if (!set.locators.empty() && PageOf(set.locators.front()) == tail_page_) {
    set.tail_page = tail_page_;
    set.tail = tail_;
    std::memcpy(set.tail.data(), &tail_count_, 4);
  }
  return set;
}

Result<std::vector<UpdateRecord>> Warehouse::Read(const ReadSet& set,
                                                  const SampleFilter* filter,
                                                  size_t n) const {
  // 16 pages is 128 KiB of 8 KiB pages, read with one ReadPages call; a
  // default 100-record sample takes a few. A buffer for the whole sample
  // (up to ~0.7 MB) would be allocated and freed in the serving worker's
  // heap on every request; the next request's small allocations land in
  // the freed range, the next such buffer goes above them, and every
  // worker heap grows by such steps.
  constexpr size_t kBatchPages = 16;
  const size_t payload = pager_->payload_size();
  const std::vector<uint64_t>& locators = set.locators;
  std::vector<UpdateRecord> out;
  std::vector<PageId> pages;
  std::vector<unsigned char> buf;
  size_t i = 0;
  while (i < locators.size() && (n == 0 || out.size() < n)) {
    // Locators descend, so each page's locators are adjacent and a page is
    // new exactly when it differs from the last one batched.
    pages.clear();
    size_t end = i;
    for (; end < locators.size(); ++end) {
      PageId page = PageOf(locators[end]);
      if (page == set.tail_page || (!pages.empty() && pages.back() == page)) {
        continue;
      }
      if (pages.size() == kBatchPages) break;
      pages.push_back(page);
    }
    buf.resize(pages.size() * payload);
    RASED_RETURN_IF_ERROR(pager_->ReadPages(pages, buf.data()));
    size_t k = 0;
    for (; i < end && (n == 0 || out.size() < n); ++i) {
      PageId page = PageOf(locators[i]);
      const unsigned char* data = set.tail.data();
      if (page != set.tail_page) {
        while (pages[k] != page) ++k;
        data = buf.data() + k * payload;
      }
      uint32_t slot = SlotOf(locators[i]);
      uint32_t count = 0;
      std::memcpy(&count, data, 4);
      if (slot >= count) {
        return Status::OutOfRange(
            StrFormat("slot %u >= page count %u", slot, count));
      }
      UpdateRecord r = UpdateRecord::DecodeFrom(
          data + 4 + slot * UpdateRecord::kEncodedBytes);
      if (filter == nullptr || filter->Matches(r)) out.push_back(r);
    }
  }
  return out;
}

Result<std::vector<UpdateRecord>> Warehouse::SampleInBox(
    const BoundingBox& box, size_t n) {
  ReadSet set;
  {
    MutexLock lock(&mu_);
    set = Capture(NewestInBox(box, n));
  }
  return Read(set, /*filter=*/nullptr, n);
}

Result<std::vector<UpdateRecord>> Warehouse::FindByChangeset(
    uint64_t changeset_id) {
  ReadSet set;
  {
    MutexLock lock(&mu_);
    std::vector<uint64_t> locators;
    for (uint32_t ordinal =
             changesets_[ChangesetSlotOf(changeset_id)].newest;
         ordinal != kNoOrdinal;
         ordinal = EntryAt(ordinal).prev_in_changeset) {
      locators.push_back(LocatorOf(ordinal));
    }
    set = Capture(std::move(locators));
  }
  return Read(set, /*filter=*/nullptr, /*n=*/0);
}

Result<std::vector<UpdateRecord>> Warehouse::Sample(
    const SampleFilter& filter, const BoundingBox* box, size_t n) {
  ReadSet set;
  {
    MutexLock lock(&mu_);
    std::vector<uint64_t> locators;
    if (box != nullptr) {
      locators = NewestInBox(*box, /*n=*/0);
    } else {
      locators.reserve(num_records_);
      uint64_t end = num_records_;  // one past the page's last ordinal
      for (size_t p = page_first_.size(); p > 0; --p) {
        for (uint64_t slot = end - page_first_[p - 1]; slot > 0; --slot) {
          locators.push_back(Locator(p, static_cast<uint32_t>(slot - 1)));
        }
        end = page_first_[p - 1];
      }
    }
    set = Capture(std::move(locators));
  }
  return Read(set, &filter, n);
}

}  // namespace rased
