#include "collect/daily_crawler.h"

#include <gtest/gtest.h>

#include "osm/osc.h"

namespace rased {
namespace {

class DailyCrawlerTest : public ::testing::Test {
 protected:
  DailyCrawlerTest() : world_(305), road_types_(150) {}

  Element NodeIn(const char* country, uint64_t changeset,
                 const char* highway = nullptr) {
    ZoneId zone = world_.FindByName(country).value();
    LatLon p = world_.zone(zone).bounds.Center();
    Element e;
    e.type = ElementType::kNode;
    e.meta.id = ++next_id_;
    e.meta.timestamp = OsmTimestamp{Date::FromYmd(2021, 4, 2), 100};
    e.meta.changeset = changeset;
    e.lat = p.lat;
    e.lon = p.lon;
    if (highway != nullptr) e.tags.push_back(Tag{"highway", highway});
    return e;
  }

  Element WayWith(uint64_t changeset, const char* highway) {
    Element e;
    e.type = ElementType::kWay;
    e.meta.id = ++next_id_;
    e.meta.timestamp = OsmTimestamp{Date::FromYmd(2021, 4, 2), 200};
    e.meta.changeset = changeset;
    e.node_refs = {1, 2};
    e.tags.push_back(Tag{"highway", highway});
    return e;
  }

  Changeset BoxAround(const char* country, uint64_t id) {
    ZoneId zone = world_.FindByName(country).value();
    LatLon c = world_.zone(zone).bounds.Center();
    Changeset cs;
    cs.id = id;
    cs.has_bbox = true;
    cs.min_lat = c.lat - 0.01;
    cs.max_lat = c.lat + 0.01;
    cs.min_lon = c.lon - 0.01;
    cs.max_lon = c.lon + 0.01;
    return cs;
  }

  WorldMap world_;
  RoadTypeTable road_types_;
  int64_t next_id_ = 0;
};

TEST_F(DailyCrawlerTest, NodesLocatedByCoordinates) {
  OscWriter osc;
  osc.Add(ChangeAction::kCreate, NodeIn("Germany", 7, "crossing"));
  ChangesetStore changesets;

  DailyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> out;
  ASSERT_TRUE(crawler.CrawlDiff(osc.Finish(), changesets, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].element_type, ElementType::kNode);
  EXPECT_EQ(out[0].date, Date::FromYmd(2021, 4, 2));
  EXPECT_EQ(out[0].country, world_.FindByName("Germany").value());
  EXPECT_EQ(out[0].road_type, road_types_.Lookup("crossing"));
  EXPECT_EQ(out[0].update_type, UpdateType::kNew);
  EXPECT_EQ(out[0].changeset_id, 7u);
  EXPECT_EQ(crawler.stats().located_by_coordinates, 1u);
}

TEST_F(DailyCrawlerTest, WaysLocatedThroughChangesetBBox) {
  OscWriter osc;
  osc.Add(ChangeAction::kModify, WayWith(55, "residential"));
  ChangesetStore changesets;
  changesets.Add(BoxAround("Brazil", 55));

  DailyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> out;
  ASSERT_TRUE(crawler.CrawlDiff(osc.Finish(), changesets, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].country, world_.FindByName("Brazil").value());
  EXPECT_EQ(out[0].update_type, kProvisionalUpdate);
  EXPECT_EQ(crawler.stats().located_by_changeset, 1u);
}

TEST_F(DailyCrawlerTest, MissingChangesetLeavesUnlocated) {
  OscWriter osc;
  osc.Add(ChangeAction::kModify, WayWith(999, "service"));
  ChangesetStore changesets;  // empty

  DailyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> out;
  ASSERT_TRUE(crawler.CrawlDiff(osc.Finish(), changesets, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].country, kZoneUnknown);
  EXPECT_EQ(crawler.stats().unlocated, 1u);
}

TEST_F(DailyCrawlerTest, CreateVersusModifyClassification) {
  OscWriter osc;
  osc.Add(ChangeAction::kCreate, NodeIn("France", 1));
  osc.Add(ChangeAction::kModify, NodeIn("France", 1));
  osc.Add(ChangeAction::kDelete, NodeIn("France", 1));
  ChangesetStore changesets;

  DailyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> out;
  ASSERT_TRUE(crawler.CrawlDiff(osc.Finish(), changesets, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].update_type, UpdateType::kNew);
  // Diffs cannot distinguish modify kinds; both land provisional.
  EXPECT_EQ(out[1].update_type, kProvisionalUpdate);
  EXPECT_EQ(out[2].update_type, kProvisionalUpdate);
}

TEST_F(DailyCrawlerTest, NonRoadElementsKeepNoneRoadType) {
  OscWriter osc;
  osc.Add(ChangeAction::kCreate, NodeIn("India", 3));
  ChangesetStore changesets;

  DailyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> out;
  ASSERT_TRUE(crawler.CrawlDiff(osc.Finish(), changesets, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].road_type, kRoadTypeNone);
}

// The road-type table is fixed at create: a value it does not hold is
// "other", and highway=other is the "other" slot itself, id 1.
TEST_F(DailyCrawlerTest, UnknownHighwayValuesMapToOther) {
  OscWriter osc;
  osc.Add(ChangeAction::kCreate, NodeIn("Japan", 3, "quantum_expressway"));
  osc.Add(ChangeAction::kCreate, NodeIn("Japan", 3, "other"));
  ChangesetStore changesets;

  DailyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> out;
  const size_t names = road_types_.size();
  ASSERT_TRUE(crawler.CrawlDiff(osc.Finish(), changesets, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].road_type, road_types_.other_id());
  EXPECT_EQ(out[1].road_type, 1);
  EXPECT_EQ(road_types_.other_id(), 1);
  EXPECT_EQ(road_types_.size(), names);
}

TEST_F(DailyCrawlerTest, StatsAccumulateAcrossCrawls) {
  ChangesetStore changesets;
  DailyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> out;
  for (int i = 0; i < 3; ++i) {
    OscWriter osc;
    osc.Add(ChangeAction::kCreate, NodeIn("Kenya", 3));
    ASSERT_TRUE(crawler.CrawlDiff(osc.Finish(), changesets, &out).ok());
  }
  EXPECT_EQ(crawler.stats().elements_seen, 3u);
  EXPECT_EQ(crawler.stats().records_emitted, 3u);
  EXPECT_EQ(out.size(), 3u);
  crawler.ResetStats();
  EXPECT_EQ(crawler.stats().elements_seen, 0u);
}

TEST_F(DailyCrawlerTest, MalformedDiffFails) {
  ChangesetStore changesets;
  DailyCrawler crawler(&world_, &road_types_);
  std::vector<UpdateRecord> out;
  EXPECT_FALSE(crawler.CrawlDiff("<osmChange><create><node/></create>"
                                 "</osmChange>",
                                 changesets, &out)
                   .ok());
}

}  // namespace
}  // namespace rased
