#include "warehouse/warehouse.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>

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
  grid_.resize(CellOf(kGridRows, 0));
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
  // bytes of each page.
  std::vector<unsigned char> buf(pager_->payload_size());
  for (PageId page = 1; page <= pager_->num_pages(); ++page) {
    RASED_RETURN_IF_ERROR(pager_->ReadPage(page, buf.data()));
    uint32_t count;
    std::memcpy(&count, buf.data(), 4);
    for (uint32_t slot = 0; slot < count; ++slot) {
      UpdateRecord r = UpdateRecord::DecodeFrom(
          buf.data() + 4 + slot * UpdateRecord::kEncodedBytes);
      IndexRecord(r, Locator(page, slot));
      ++num_records_;
    }
  }
  return Status::OK();
}

void Warehouse::IndexRecord(const UpdateRecord& record, uint64_t locator) {
  by_changeset_[record.changeset_id].push_back(locator);
  grid_[CellOf(GridRow(record.lat), GridCol(record.lon))].push_back(
      GridPoint{record.lat, record.lon, locator});
  const size_t page_index = PageOf(locator) - 1;
  if (page_counts_.size() <= page_index) page_counts_.resize(page_index + 1);
  page_counts_[page_index] = SlotOf(locator) + 1;
}

Status Warehouse::Append(const std::vector<UpdateRecord>& records) {
  MutexLock lock(&mu_);
  const size_t per_page = RecordsPerPage();
  for (const UpdateRecord& r : records) {
    if (tail_page_ == kInvalidPageId) {
      RASED_ASSIGN_OR_RETURN(tail_page_, pager_->AllocatePage());
      std::fill(tail_.begin(), tail_.end(), 0);
      tail_count_ = 0;
    }
    r.EncodeTo(tail_.data() + 4 + tail_count_ * UpdateRecord::kEncodedBytes);
    IndexRecord(r, Locator(tail_page_, tail_count_));
    ++tail_count_;
    ++num_records_;
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
  // One cursor per overlapping cell walks back from the cell's newest
  // point; a max-heap on the cursors' locators merges the cells newest
  // first, so only about n points are ever visited past the first probe.
  struct Cursor {
    uint64_t locator;
    const std::vector<GridPoint>* cell;
    size_t pos;  // index of the point the cursor stands on
  };
  auto older = [](const Cursor& a, const Cursor& b) {
    return a.locator < b.locator;
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(older)> heap(
      older);
  auto push_next_in_box = [&heap, &box](const std::vector<GridPoint>* cell,
                                        size_t end) {
    while (end > 0) {
      const GridPoint& p = (*cell)[--end];
      if (box.Contains(LatLon{p.lat, p.lon})) {
        heap.push(Cursor{p.locator, cell, end});
        return;
      }
    }
  };
  for (int row = GridRow(box.min_lat); row <= GridRow(box.max_lat); ++row) {
    for (int col = GridCol(box.min_lon); col <= GridCol(box.max_lon); ++col) {
      const std::vector<GridPoint>& cell = grid_[CellOf(row, col)];
      push_next_in_box(&cell, cell.size());
    }
  }
  std::vector<uint64_t> out;
  while (!heap.empty() && (n == 0 || out.size() < n)) {
    Cursor top = heap.top();
    heap.pop();
    out.push_back(top.locator);
    push_next_in_box(top.cell, top.pos);
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
    auto it = by_changeset_.find(changeset_id);
    if (it == by_changeset_.end()) return std::vector<UpdateRecord>{};
    set = Capture(std::vector<uint64_t>(it->second.rbegin(),
                                        it->second.rend()));
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
      for (size_t p = page_counts_.size(); p > 0; --p) {
        for (uint32_t slot = page_counts_[p - 1]; slot > 0; --slot) {
          locators.push_back(Locator(p, slot - 1));
        }
      }
    }
    set = Capture(std::move(locators));
  }
  return Read(set, &filter, n);
}

}  // namespace rased
