#include "warehouse/warehouse.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/env.h"
#include "obs/heap_stats.h"
#include "synth/update_generator.h"
#include "util/random.h"

namespace rased {
namespace {

class WarehouseTest : public ::testing::Test {
 protected:
  WarehouseOptions Options() {
    WarehouseOptions options;
    options.dir = env::JoinPath(dir_.path(), "wh-" + std::to_string(counter_++));
    options.device = DeviceModel{50, 50, 0.0};
    options.page_size = 1024;  // small pages exercise page boundaries
    return options;
  }

  static UpdateRecord RecordAt(double lat, double lon, uint64_t changeset,
                               Date date = Date::FromYmd(2021, 1, 1)) {
    UpdateRecord r;
    r.element_type = ElementType::kNode;
    r.date = date;
    r.country = 3;
    r.lat = lat;
    r.lon = lon;
    r.road_type = 2;
    r.update_type = UpdateType::kNew;
    r.changeset_id = changeset;
    return r;
  }

  TempDir dir_{"warehouse-test"};
  int counter_ = 0;
};

TEST_F(WarehouseTest, AppendAndCount) {
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok()) << wh.status().ToString();
  std::vector<UpdateRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(RecordAt(i * 0.5, i * 0.25, 10 + i % 7));
  }
  ASSERT_TRUE(wh.value()->Append(records).ok());
  EXPECT_EQ(wh.value()->num_records(), 100u);
}

TEST_F(WarehouseTest, FindByChangeset) {
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok());
  ASSERT_TRUE(wh.value()
                  ->Append({RecordAt(1, 1, 500), RecordAt(2, 2, 501),
                            RecordAt(3, 3, 500)})
                  .ok());
  auto hits = wh.value()->FindByChangeset(500);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 2u);
  for (const UpdateRecord& r : hits.value()) {
    EXPECT_EQ(r.changeset_id, 500u);
  }
  EXPECT_TRUE(wh.value()->FindByChangeset(999).value_or({}).empty());
}

TEST_F(WarehouseTest, SampleInBox) {
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok());
  std::vector<UpdateRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(RecordAt(i, i, 1));  // diagonal
  }
  ASSERT_TRUE(wh.value()->Append(records).ok());
  auto hits = wh.value()->SampleInBox(BoundingBox{10, 10, 20, 20}, 100);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 11u);  // lat 10..20 inclusive
  for (const UpdateRecord& r : hits.value()) {
    EXPECT_GE(r.lat, 10);
    EXPECT_LE(r.lat, 20);
  }
}

TEST_F(WarehouseTest, SampleInBoxHonorsLimit) {
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok());
  std::vector<UpdateRecord> records;
  for (int i = 0; i < 500; ++i) records.push_back(RecordAt(5, 5, 1));
  ASSERT_TRUE(wh.value()->Append(records).ok());
  auto hits = wh.value()->SampleInBox(BoundingBox{0, 0, 10, 10}, 100);
  ASSERT_TRUE(hits.ok());
  // The paper's default sample size: N = 100.
  EXPECT_EQ(hits.value().size(), 100u);
}

TEST_F(WarehouseTest, SampleWithFilter) {
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok());
  std::vector<UpdateRecord> records;
  for (int i = 0; i < 60; ++i) {
    UpdateRecord r = RecordAt(i, i, 1, Date::FromYmd(2021, 1, 1 + i % 28));
    r.update_type = i % 2 == 0 ? UpdateType::kNew : UpdateType::kDelete;
    records.push_back(r);
  }
  ASSERT_TRUE(wh.value()->Append(records).ok());

  SampleFilter filter;
  filter.update_types = {UpdateType::kDelete};
  auto hits = wh.value()->Sample(filter, nullptr, 1000);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 30u);

  filter.range = DateRange(Date::FromYmd(2021, 1, 1),
                           Date::FromYmd(2021, 1, 7));
  auto bounded = wh.value()->Sample(filter, nullptr, 1000);
  ASSERT_TRUE(bounded.ok());
  for (const UpdateRecord& r : bounded.value()) {
    EXPECT_LE(r.date, Date::FromYmd(2021, 1, 7));
    EXPECT_EQ(r.update_type, UpdateType::kDelete);
  }
}

TEST_F(WarehouseTest, SampleWithSpatialFilterCombination) {
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok());
  std::vector<UpdateRecord> records;
  for (int i = 0; i < 40; ++i) {
    UpdateRecord r = RecordAt(i, i, 1);
    r.element_type = i % 2 == 0 ? ElementType::kNode : ElementType::kWay;
    records.push_back(r);
  }
  ASSERT_TRUE(wh.value()->Append(records).ok());
  SampleFilter filter;
  filter.element_types = {ElementType::kWay};
  BoundingBox box{0, 0, 19, 19};
  auto hits = wh.value()->Sample(filter, &box, 100);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 10u);  // odd i in 0..19
}

TEST_F(WarehouseTest, PersistsAcrossReopen) {
  WarehouseOptions options = Options();
  {
    auto wh = Warehouse::Create(options);
    ASSERT_TRUE(wh.ok());
    std::vector<UpdateRecord> records;
    for (int i = 0; i < 123; ++i) {
      records.push_back(RecordAt(i * 0.1, i * 0.2, 42));
    }
    ASSERT_TRUE(wh.value()->Append(records).ok());
  }
  auto wh = Warehouse::Open(options);
  ASSERT_TRUE(wh.ok()) << wh.status().ToString();
  EXPECT_EQ(wh.value()->num_records(), 123u);
  auto hits = wh.value()->FindByChangeset(42);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 123u);
  // Spatial index was rebuilt too.
  auto in_box = wh.value()->SampleInBox(BoundingBox{0, 0, 100, 100}, 0);
  ASSERT_TRUE(in_box.ok());
  EXPECT_EQ(in_box.value().size(), 123u);
}

TEST_F(WarehouseTest, UnflushedTailIsQueryable) {
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok());
  // Fewer records than one page holds.
  ASSERT_TRUE(wh.value()->Append({RecordAt(7, 7, 77)}).ok());
  auto hits = wh.value()->FindByChangeset(77);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits.value().size(), 1u);
  EXPECT_DOUBLE_EQ(hits.value()[0].lat, 7);
}

TEST_F(WarehouseTest, PageReadsAreBatchedByLocatorOrder) {
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok());
  std::vector<UpdateRecord> records;
  for (int i = 0; i < 200; ++i) {
    records.push_back(RecordAt(1, 1, 5));  // all in one tiny box
  }
  ASSERT_TRUE(wh.value()->Append(records).ok());
  ASSERT_TRUE(wh.value()->Sync().ok());
  wh.value()->pager()->ResetStats();
  auto hits = wh.value()->FindByChangeset(5);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 200u);
  // 1024-byte pages hold 30 records => 200 records span 7 pages; a read
  // fetches each distinct page once, so reads stay at page-count, not
  // record-count.
  EXPECT_LE(wh.value()->pager()->stats().page_reads, 8u);
}

// The sample definition every read shares, by brute force over `records`
// (append order): the records that lie in `box` (null = anywhere) and
// match `filter` (null = all), newest (highest heap position) first, until
// `n` (0 = all) are kept.
std::vector<UpdateRecord> NewestMatching(std::span<const UpdateRecord> records,
                                         const BoundingBox* box,
                                         const SampleFilter* filter,
                                         size_t n) {
  std::vector<UpdateRecord> out;
  for (size_t i = records.size(); i > 0 && (n == 0 || out.size() < n); --i) {
    const UpdateRecord& r = records[i - 1];
    if (box != nullptr && !box->Contains(LatLon{r.lat, r.lon})) continue;
    if (filter != nullptr && !filter->Matches(r)) continue;
    out.push_back(r);
  }
  return out;
}

// Random points over a 40°x40° region, `per_day` per day from 2021-01-01,
// each with a distinct changeset id so records are distinguishable.
std::vector<UpdateRecord> RandomDays(int days, int per_day, uint64_t seed) {
  Rng rng(seed);
  std::vector<UpdateRecord> records;
  for (int d = 0; d < days; ++d) {
    for (int i = 0; i < per_day; ++i) {
      UpdateRecord r;
      r.element_type = ElementType::kWay;
      r.date = Date::FromYmd(2021, 1, 1).AddDays(d);
      r.country = 3;
      r.lat = rng.NextDouble() * 40.0;
      r.lon = rng.NextDouble() * 40.0 - 20.0;
      r.road_type = static_cast<RoadTypeId>(i % 5);
      r.update_type = i % 3 == 0 ? UpdateType::kNew : UpdateType::kGeometry;
      r.changeset_id = records.size() + 1;
      records.push_back(r);
    }
  }
  return records;
}

std::vector<BoundingBox> TestBoxes() {
  return {BoundingBox{0, -20, 40, 20},     BoundingBox{5, -5, 15, 15},
          BoundingBox{10.5, 0.25, 11.5, 1.75}, BoundingBox{30, 10, 40, 20},
          BoundingBox{-5, -30, 2, -15},    BoundingBox{20, 20, 25, 25},
          BoundingBox{50, 50, 60, 60}};
}

TEST_F(WarehouseTest, SamplesReturnNewestInBoxFirst) {
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok());
  std::vector<UpdateRecord> records = RandomDays(12, 50, 7);
  ASSERT_TRUE(wh.value()->Append(records).ok());
  for (const BoundingBox& box : TestBoxes()) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{100}}) {
      auto got = wh.value()->SampleInBox(box, n);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(),
                NewestMatching(records, &box, nullptr, n))
          << box.ToString() << " n=" << n;
    }
  }
  // The filtered and changeset reads follow the same definition.
  SampleFilter filter;
  filter.update_types = {UpdateType::kNew};
  BoundingBox box{5, -5, 15, 15};
  auto filtered = wh.value()->Sample(filter, &box, 5);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered.value(), NewestMatching(records, &box, &filter, 5));
  auto unboxed = wh.value()->Sample(filter, nullptr, 3);
  ASSERT_TRUE(unboxed.ok());
  EXPECT_EQ(unboxed.value(), NewestMatching(records, nullptr, &filter, 3));

  ASSERT_TRUE(wh.value()
                  ->Append({RecordAt(1, 1, 9000), RecordAt(2, 2, 9000)})
                  .ok());
  auto by_changeset = wh.value()->FindByChangeset(9000);
  ASSERT_TRUE(by_changeset.ok());
  ASSERT_EQ(by_changeset.value().size(), 2u);
  EXPECT_DOUBLE_EQ(by_changeset.value()[0].lat, 2);
  EXPECT_DOUBLE_EQ(by_changeset.value()[1].lat, 1);
}

TEST_F(WarehouseTest, SamplesIdenticalAfterReopen) {
  WarehouseOptions options = Options();
  std::vector<UpdateRecord> records = RandomDays(10, 45, 11);
  const auto half = records.begin() + 5 * 45;
  {
    auto wh = Warehouse::Create(options);
    ASSERT_TRUE(wh.ok());
    ASSERT_TRUE(wh.value()->Append({records.begin(), half}).ok());
  }
  // Appends after a reopen start a fresh page, so the first session's
  // partial last page stays partial in the middle of the heap.
  std::vector<std::vector<UpdateRecord>> before;
  SampleFilter filter;
  filter.update_types = {UpdateType::kNew};
  {
    auto wh = Warehouse::Open(options);
    ASSERT_TRUE(wh.ok()) << wh.status().ToString();
    ASSERT_TRUE(wh.value()->Append({half, records.end()}).ok());
    for (const BoundingBox& box : TestBoxes()) {
      auto got = wh.value()->SampleInBox(box, 20);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(),
                NewestMatching(records, &box, nullptr, 20));
      before.push_back(got.value());
    }
    auto unboxed = wh.value()->Sample(filter, nullptr, 0);
    ASSERT_TRUE(unboxed.ok());
    before.push_back(unboxed.value());
  }
  auto wh = Warehouse::Open(options);
  ASSERT_TRUE(wh.ok()) << wh.status().ToString();
  EXPECT_EQ(wh.value()->num_records(), records.size());
  std::vector<BoundingBox> boxes = TestBoxes();
  for (size_t i = 0; i < boxes.size(); ++i) {
    auto got = wh.value()->SampleInBox(boxes[i], 20);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), before[i]) << boxes[i].ToString();
  }
  auto unboxed = wh.value()->Sample(filter, nullptr, 0);
  ASSERT_TRUE(unboxed.ok());
  EXPECT_EQ(unboxed.value(), before.back());
  EXPECT_EQ(unboxed.value().size(), records.size() / 3);  // i % 3 == 0
}

// Four samplers run against an appender that Syncs in the middle of every
// day, so the partial tail page is rewritten on disk under the readers.
// Every sample must lie in its box, and a sample taken wholly inside a
// quiescent interval (no append in flight) must equal the serial
// brute-force reference for the records appended so far.
TEST_F(WarehouseTest, ConcurrentSamplersMatchReferenceAcrossMidDaySyncs) {
  constexpr int kDays = 16;
  constexpr int kPerDay = 90;  // 3 pages of 30; the mid-day Sync is mid-page
  constexpr int kHalf = kPerDay / 2;
  constexpr int kSamplers = 4;
  auto wh = Warehouse::Create(Options());
  ASSERT_TRUE(wh.ok());
  Warehouse* warehouse = wh.value().get();
  const std::vector<UpdateRecord> records = RandomDays(kDays, kPerDay, 23);
  const std::vector<BoundingBox> boxes = TestBoxes();

  // Even phase 2k: quiescent with k half-days appended; odd: appending.
  std::atomic<int> phase{0};
  std::atomic<bool> stop{false};
  std::atomic<int> verified[kSamplers];
  for (auto& v : verified) v.store(-1);
  std::atomic<int> failures{0};

  std::vector<std::thread> samplers;
  for (int t = 0; t < kSamplers; ++t) {
    samplers.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const BoundingBox& box = boxes[rng.Uniform(boxes.size())];
        const size_t n = size_t{1} << rng.Uniform(8);  // 1..128
        const int before = phase.load(std::memory_order_acquire);
        auto got = warehouse->SampleInBox(box, n);
        const int after = phase.load(std::memory_order_acquire);
        if (!got.ok() || got.value().size() > n) {
          failures.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < got.value().size(); ++i) {
          const UpdateRecord& r = got.value()[i];
          if (!box.Contains(LatLon{r.lat, r.lon}) ||
              (i > 0 && r.changeset_id >= got.value()[i - 1].changeset_id)) {
            failures.fetch_add(1);
          }
        }
        if (before == after && before % 2 == 0) {
          const size_t count = static_cast<size_t>(before / 2) * kHalf;
          if (got.value() !=
              NewestMatching({records.data(), count}, &box, nullptr, n)) {
            failures.fetch_add(1);
          }
          verified[t].store(before, std::memory_order_release);
        }
      }
    });
  }

  auto wait_for_samplers = [&](int p) {
    for (auto& v : verified) {
      while (v.load(std::memory_order_acquire) < p) std::this_thread::yield();
    }
  };
  bool appended = true;
  for (int half = 0; half < 2 * kDays && appended; ++half) {
    wait_for_samplers(2 * half);
    phase.store(2 * half + 1, std::memory_order_release);
    std::vector<UpdateRecord> chunk(records.begin() + half * kHalf,
                                    records.begin() + (half + 1) * kHalf);
    appended = warehouse->Append(chunk).ok();
    if (appended && half % 2 == 0) appended = warehouse->Sync().ok();
    phase.store(2 * half + 2, std::memory_order_release);
  }
  EXPECT_TRUE(appended);
  if (appended) wait_for_samplers(4 * kDays);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : samplers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(warehouse->num_records(), records.size());
}

// Every record in the heap, oldest first, read page by page from disk with
// the pager: the reference the differential test compares against.
std::vector<UpdateRecord> ScanHeap(Warehouse* wh) {
  Pager* pager = wh->pager();
  std::vector<unsigned char> buf(pager->payload_size());
  std::vector<UpdateRecord> out;
  for (PageId page = 1; page <= pager->num_pages(); ++page) {
    EXPECT_TRUE(pager->ReadPage(page, buf.data()).ok());
    uint32_t count = 0;
    std::memcpy(&count, buf.data(), 4);
    for (uint32_t slot = 0; slot < count; ++slot) {
      out.push_back(UpdateRecord::DecodeFrom(
          buf.data() + 4 + slot * UpdateRecord::kEncodedBytes));
    }
  }
  return out;
}

// Every read of a warehouse that was reopened (its first session's partial
// last page stays partial between full pages) and synced mid-day equals a
// newest-first scan of every heap page: boxes anywhere on the globe and
// boxes clamped at the poles and the antimeridian, changesets whose records
// span many pages, and filtered samples with and without a box.
TEST_F(WarehouseTest, ReadsMatchHeapScanAcrossReopenAndMidDaySync) {
  Rng rng(2029);
  // One coordinate in eight sits exactly on its range's edge.
  auto coordinate = [&rng](double limit) {
    if (rng.Uniform(8) == 0) return rng.Bernoulli(0.5) ? limit : -limit;
    return (rng.NextDouble() * 2.0 - 1.0) * limit;
  };
  // Appends `days` days of 70 records (2⅓ pages of 30) from `first`,
  // syncing after the 33rd record of each.
  auto append_days = [&](Warehouse* wh, Date first, int days,
                         std::vector<UpdateRecord>* appended) {
    for (int d = 0; d < days; ++d) {
      std::vector<UpdateRecord> day;
      for (int i = 0; i < 70; ++i) {
        UpdateRecord r;
        r.element_type = static_cast<ElementType>(rng.Uniform(3));
        r.date = first.AddDays(d);
        r.country = static_cast<ZoneId>(rng.Uniform(8));
        r.lat = coordinate(90.0);
        r.lon = coordinate(180.0);
        r.road_type = static_cast<RoadTypeId>(rng.Uniform(6));
        r.update_type = static_cast<UpdateType>(rng.Uniform(4));
        r.changeset_id = 1000 + rng.Uniform(60);  // each spans many pages
        day.push_back(r);
      }
      ASSERT_TRUE(wh->Append({day.begin(), day.begin() + 33}).ok());
      ASSERT_TRUE(wh->Sync().ok());
      ASSERT_TRUE(wh->Append({day.begin() + 33, day.end()}).ok());
      appended->insert(appended->end(), day.begin(), day.end());
    }
  };

  WarehouseOptions options = Options();
  const Date start = Date::FromYmd(2021, 3, 1);
  std::vector<UpdateRecord> appended;
  {
    auto wh = Warehouse::Create(options);
    ASSERT_TRUE(wh.ok());
    append_days(wh.value().get(), start, 6, &appended);
  }
  auto opened = Warehouse::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Warehouse* wh = opened.value().get();
  ASSERT_EQ(wh->num_records(), appended.size());
  append_days(wh, start.AddDays(6), 5, &appended);
  // Sync writes the partial tail page's image but leaves it the tail, so
  // the reads below still serve it from the in-memory copy.
  ASSERT_TRUE(wh->Sync().ok());
  const std::vector<UpdateRecord> heap = ScanHeap(wh);
  ASSERT_EQ(heap, appended);
  ASSERT_EQ(wh->num_records(), heap.size());

  for (int i = 0; i < 200; ++i) {
    BoundingBox box;
    box.min_lat = coordinate(90.0);
    box.max_lat = coordinate(90.0);
    box.min_lon = coordinate(180.0);
    box.max_lon = coordinate(180.0);
    if (box.min_lat > box.max_lat) std::swap(box.min_lat, box.max_lat);
    if (box.min_lon > box.max_lon) std::swap(box.min_lon, box.max_lon);
    for (size_t n : {size_t{1}, size_t{100}, size_t{0}}) {
      auto got = wh->SampleInBox(box, n);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_EQ(got.value(), NewestMatching(heap, &box, nullptr, n))
          << box.ToString() << " n=" << n;
    }
  }

  for (uint64_t id = 1000; id < 1060; ++id) {
    auto got = wh->FindByChangeset(id);
    ASSERT_TRUE(got.ok());
    std::vector<UpdateRecord> want;
    for (const UpdateRecord& r : NewestMatching(heap, nullptr, nullptr, 0)) {
      if (r.changeset_id == id) want.push_back(r);
    }
    ASSERT_EQ(got.value(), want) << "changeset " << id;
  }
  auto absent = wh->FindByChangeset(999);
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(absent.value().empty());

  SampleFilter filter;
  filter.range = DateRange(start.AddDays(2), start.AddDays(8));
  filter.update_types = {UpdateType::kNew, UpdateType::kDelete};
  filter.countries = {1, 2, 5};
  const BoundingBox box{-45, -90, 90, 180};
  for (size_t n : {size_t{1}, size_t{100}, size_t{0}}) {
    auto unboxed = wh->Sample(filter, nullptr, n);
    ASSERT_TRUE(unboxed.ok());
    EXPECT_EQ(unboxed.value(), NewestMatching(heap, nullptr, &filter, n))
        << "n=" << n;
    auto boxed = wh->Sample(filter, &box, n);
    ASSERT_TRUE(boxed.ok());
    EXPECT_EQ(boxed.value(), NewestMatching(heap, &box, &filter, n))
        << "n=" << n;
  }
}

// A paper-rate year's warehouse (the dashbench paper fixture's generator:
// paper-scale world, 500 updates a day, seed 1) indexes its records without
// an allocation per record, on append and on open.
TEST_F(WarehouseTest, AppendAndOpenDoNotAllocatePerRecord) {
  WorldMap world(305);
  RoadTypeTable roads(150);
  SynthOptions synth;
  synth.seed = 1;
  synth.base_updates_per_day = 500.0;
  synth.period = DateRange(Date::FromYmd(2020, 1, 1),
                           Date::FromYmd(2020, 12, 31));
  UpdateGenerator gen(synth, &world, &roads);
  WarehouseOptions options = Options();
  options.page_size = WarehouseOptions().page_size;

  Date day = synth.period.first;
  uint64_t max_day_ops = 0;
  size_t max_day_records = 0;
  {
    auto wh = Warehouse::Create(options);
    ASSERT_TRUE(wh.ok());
    for (; wh.value()->num_records() < 100000; day = day.next()) {
      ASSERT_TRUE(wh.value()->Append(gen.GenerateDayRecords(day)).ok());
    }
    // Three more days, each timed on its own: a day may open a new index
    // chunk or grow the changeset table, but never allocates per record.
    for (int i = 0; i < 3; ++i, day = day.next()) {
      const std::vector<UpdateRecord> records = gen.GenerateDayRecords(day);
      ResourceScope scope;
      ASSERT_TRUE(wh.value()->Append(records).ok());
      max_day_ops = std::max(max_day_ops, scope.Usage().alloc_ops);
      max_day_records = std::max(max_day_records, records.size());
    }
  }
  RecordProperty("append_day_alloc_ops", static_cast<int>(max_day_ops));
  EXPECT_GT(max_day_records, 500u);
  EXPECT_LE(max_day_ops, 16u) << max_day_records << " records";

  uint64_t open_ops = 0;
  uint64_t records = 0;
  {
    ResourceScope scope;
    auto wh = Warehouse::Open(options);
    ASSERT_TRUE(wh.ok()) << wh.status().ToString();
    open_ops = scope.Usage().alloc_ops;
    records = wh.value()->num_records();
  }
  RecordProperty("open_alloc_ops", static_cast<int>(open_ops));
  EXPECT_GE(records, 100000u);
  EXPECT_LT(open_ops, records / 100) << records << " records";
}

// A page whose slot count is more than a page holds fails the open, not the
// index build.
TEST_F(WarehouseTest, OpenRejectsPageClaimingTooManyRecords) {
  WarehouseOptions options = Options();
  {
    auto wh = Warehouse::Create(options);
    ASSERT_TRUE(wh.ok());
    ASSERT_TRUE(wh.value()->Append({RecordAt(1, 1, 1), RecordAt(2, 2, 2)})
                    .ok());
  }
  {
    auto pager = Pager::Open(env::JoinPath(options.dir, "warehouse.pages"),
                             options.device);
    ASSERT_TRUE(pager.ok());
    std::vector<unsigned char> page(pager.value()->payload_size());
    ASSERT_TRUE(pager.value()->ReadPage(1, page.data()).ok());
    const uint32_t count = 31;  // 1024-byte pages hold 30
    std::memcpy(page.data(), &count, 4);
    ASSERT_TRUE(pager.value()->WritePage(1, page.data(), page.size()).ok());
    ASSERT_TRUE(pager.value()->Sync().ok());
  }
  EXPECT_TRUE(Warehouse::Open(options).status().IsCorruption());
}

TEST_F(WarehouseTest, CreateRejectsExisting) {
  WarehouseOptions options = Options();
  ASSERT_TRUE(Warehouse::Create(options).ok());
  EXPECT_TRUE(Warehouse::Create(options).status().IsAlreadyExists());
}

}  // namespace
}  // namespace rased
