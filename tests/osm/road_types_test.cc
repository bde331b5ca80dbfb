#include "osm/road_types.h"

#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

namespace rased {
namespace {

TEST(RoadTypeTableTest, ReservedSlots) {
  RoadTypeTable table(150);
  EXPECT_EQ(table.Name(kRoadTypeNone), "(none)");
  EXPECT_EQ(table.Name(table.other_id()), "other");
  EXPECT_EQ(table.other_id(), 1);
}

TEST(RoadTypeTableTest, CanonicalValuesSeeded) {
  RoadTypeTable table(150);
  RoadTypeId residential = table.Lookup("residential");
  EXPECT_NE(residential, kRoadTypeNone);
  EXPECT_NE(residential, table.other_id());
  EXPECT_EQ(table.Name(residential), "residential");
  EXPECT_NE(table.Lookup("motorway"), table.other_id());
  EXPECT_NE(table.Lookup("footway"), table.other_id());
}

TEST(RoadTypeTableTest, EmptyValueIsNone) {
  RoadTypeTable table(150);
  EXPECT_EQ(table.Lookup(""), kRoadTypeNone);
  // "(none)" is a name, not a highway value.
  EXPECT_EQ(table.Lookup("(none)"), table.other_id());
}

// The table is (none), other, then the canonical taxonomy, and nothing a
// crawl sees changes it: the ids are a function of the value alone.
TEST(RoadTypeTableTest, TableIsFixedAtCreate) {
  RoadTypeTable table(150);
  const auto& canonical = RoadTypeTable::CanonicalHighwayValues();
  ASSERT_EQ(table.size(), 2 + canonical.size());
  EXPECT_EQ(table.capacity(), 150u);
  for (size_t i = 0; i < canonical.size(); ++i) {
    EXPECT_EQ(table.Lookup(canonical[i]), static_cast<RoadTypeId>(2 + i));
    EXPECT_EQ(table.Name(static_cast<RoadTypeId>(2 + i)), canonical[i]);
  }
  const uint64_t fingerprint = table.Fingerprint();
  EXPECT_EQ(table.Lookup("hyperloop_track"), table.other_id());
  EXPECT_EQ(table.size(), 2 + canonical.size());
  EXPECT_EQ(table.Fingerprint(), fingerprint);
}

// highway=other names the catch-all slot itself.
TEST(RoadTypeTableTest, OtherValueIsSlotOne) {
  RoadTypeTable table(150);
  EXPECT_EQ(table.Lookup("other"), 1);
  EXPECT_EQ(table.Lookup(table.Name(table.other_id())), table.other_id());
}

TEST(RoadTypeTableTest, OverflowGoesToOtherBucket) {
  RoadTypeTable table(10);  // tiny capacity: 8 canonical values fit
  const auto& canonical = RoadTypeTable::CanonicalHighwayValues();
  EXPECT_EQ(table.size(), table.capacity());
  EXPECT_EQ(table.Lookup(canonical[7]), 9);
  EXPECT_EQ(table.Lookup(canonical[8]), table.other_id());
  EXPECT_EQ(table.Lookup("one_too_many"), table.other_id());
  EXPECT_EQ(table.size(), table.capacity());
}

TEST(RoadTypeTableTest, LookupUnknownIsOther) {
  RoadTypeTable table(150);
  EXPECT_EQ(table.Lookup("no_such_highway_value"), table.other_id());
}

TEST(RoadTypeTableTest, FingerprintFollowsTheNames) {
  EXPECT_EQ(RoadTypeTable(150).Fingerprint(), RoadTypeTable(100).Fingerprint());
  EXPECT_NE(RoadTypeTable(150).Fingerprint(), RoadTypeTable(10).Fingerprint());
}

// Lookup and Name take no lock: Name hands out a reference into the
// immutable table, which stays valid while other threads read it.
TEST(RoadTypeTableTest, LookupAndNameTakeNoLock) {
  static_assert(std::is_same_v<decltype(std::declval<const RoadTypeTable&>()
                                            .Name(RoadTypeId{0})),
                               const std::string&>);
  const RoadTypeTable table(150);
  const std::string& residential = table.Name(table.Lookup("residential"));
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&table] {
      for (int i = 0; i < 2000; ++i) {
        for (const std::string& v : RoadTypeTable::CanonicalHighwayValues()) {
          ASSERT_EQ(table.Name(table.Lookup(v)), v);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(&table.Name(table.Lookup("residential")), &residential);
}

TEST(RoadTypeTableTest, IdsAreStableAcrossInstances) {
  // Two tables with the same capacity assign the same ids to canonical
  // values — required because cube cells are keyed by these ids.
  RoadTypeTable a(150), b(150);
  for (const std::string& v : RoadTypeTable::CanonicalHighwayValues()) {
    EXPECT_EQ(a.Lookup(v), b.Lookup(v)) << v;
  }
}

TEST(RoadTypeTableTest, CapacityBoundsSeeding) {
  RoadTypeTable small(5);
  EXPECT_EQ(small.size(), 5u);  // (none), other, 3 canonical
  EXPECT_EQ(small.Lookup("motorway"), 2);  // first canonical value
}

}  // namespace
}  // namespace rased
