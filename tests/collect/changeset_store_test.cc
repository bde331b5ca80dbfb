#include "collect/changeset_store.h"

#include <gtest/gtest.h>

namespace rased {
namespace {

TEST(ChangesetStoreTest, AddAndFind) {
  ChangesetStore store;
  Changeset cs;
  cs.id = 42;
  cs.has_bbox = true;
  cs.min_lat = 10.0;
  cs.max_lat = 11.0;
  cs.min_lon = -4.0;
  cs.max_lon = -2.0;
  store.Add(cs);
  ASSERT_NE(store.Find(42), nullptr);
  EXPECT_TRUE(store.Find(42)->has_bbox);
  EXPECT_EQ(store.Find(42)->lat, cs.center_lat());
  EXPECT_EQ(store.Find(42)->lon, cs.center_lon());
  EXPECT_EQ(store.Find(43), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(ChangesetStoreTest, ReplacesOnDuplicateId) {
  ChangesetStore store;
  Changeset a;
  a.id = 1;
  store.Add(a);
  Changeset b;
  b.id = 1;
  b.has_bbox = true;
  b.max_lat = 50.0;
  store.Add(b);
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.Find(1)->has_bbox);
  EXPECT_EQ(store.Find(1)->lat, 25.0);
}

TEST(ChangesetStoreTest, AddFromXml) {
  ChangesetStore store;
  Status s = store.AddFromXml(R"(<osm>
    <changeset id="10" created_at="2021-01-01T00:00:00Z"
               min_lat="1" min_lon="2" max_lat="3" max_lon="4"/>
    <changeset id="11" created_at="2021-01-01T01:00:00Z"/>
  </osm>)");
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.Find(10), nullptr);
  EXPECT_TRUE(store.Find(10)->has_bbox);
  EXPECT_EQ(store.Find(10)->lat, 2.0);
  EXPECT_EQ(store.Find(10)->lon, 3.0);
  EXPECT_FALSE(store.Find(11)->has_bbox);
}

TEST(ChangesetStoreTest, AddFromXmlRejectsGarbage) {
  ChangesetStore store;
  EXPECT_FALSE(store.AddFromXml("<osm><changeset/></osm>").ok());
}

TEST(ChangesetStoreTest, Clear) {
  ChangesetStore store;
  Changeset cs;
  cs.id = 1;
  store.Add(cs);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.Find(1), nullptr);
}

}  // namespace
}  // namespace rased
