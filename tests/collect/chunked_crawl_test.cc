#include "collect/chunked_crawl.h"

#include <dirent.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect/changeset_store.h"
#include "collect/daily_crawler.h"
#include "collect/monthly_crawler.h"
#include "core/rased.h"
#include "cube/cube_codec.h"
#include "index/cube_builder.h"
#include "io/env.h"
#include "obs/metrics_registry.h"
#include "osm/changeset.h"
#include "osm/history.h"
#include "osm/osc.h"
#include "synth/update_generator.h"
#include "util/random.h"

namespace rased {
namespace {

constexpr size_t kPartCounts[] = {1, 2, 3, 4, 7};

std::vector<UpdateRecord> Concat(
    const std::vector<std::vector<UpdateRecord>>& parts) {
  std::vector<UpdateRecord> all;
  for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  return all;
}

// Every changeset id the document names, for comparing two stores.
std::set<uint64_t> IdsIn(std::string_view xml) {
  std::set<uint64_t> ids;
  for (size_t at = xml.find("id=\""); at != std::string_view::npos;
       at = xml.find("id=\"", at + 1)) {
    uint64_t id = 0;
    for (size_t i = at + 4; i < xml.size() && xml[i] >= '0' && xml[i] <= '9';
         ++i) {
      id = id * 10 + static_cast<uint64_t>(xml[i] - '0');
    }
    ids.insert(id);
  }
  return ids;
}

// A cube's encoded blob: encoding tag, then body.
std::string BlobOf(const SparseCube& cube) {
  const EncodedCube blob = EncodedCube::Encode(cube);
  return std::to_string(static_cast<int>(blob.encoding())) + ":" +
         std::string(reinterpret_cast<const char*>(blob.body()),
                     blob.body_bytes());
}

void ExpectSameStore(const ChangesetStore& a, const ChangesetStore& b,
                     std::string_view xml) {
  ASSERT_EQ(a.size(), b.size());
  for (uint64_t id : IdsIn(xml)) {
    const ChangesetCentre* x = a.Find(id);
    const ChangesetCentre* y = b.Find(id);
    ASSERT_EQ(x == nullptr, y == nullptr) << id;
    if (x == nullptr) continue;
    EXPECT_EQ(x->has_bbox, y->has_bbox) << id;
    EXPECT_EQ(x->lat, y->lat) << id;
    EXPECT_EQ(x->lon, y->lon) << id;
  }
}

// The chunked crawl of one document against the serial crawl: the same
// status text (line numbers included) and the same tuples, in order.
class ChunkedCrawlTest : public ::testing::Test {
 protected:
  ChunkedCrawlTest() : world_(305), road_types_(150) {}

  void ExpectDiffMatches(std::string_view osc, const ChangesetStore& changesets,
                         CrawlPool* pool) {
    DailyCrawler serial(&world_, &road_types_);
    std::vector<UpdateRecord> want;
    const Status want_status = serial.CrawlDiff(osc, changesets, &want);
    DailyCrawler chunked(&world_, &road_types_);
    std::vector<std::vector<UpdateRecord>> parts;
    const Status got_status = chunked.CrawlDiff(osc, changesets, pool, &parts);
    EXPECT_EQ(got_status.ToString(), want_status.ToString());
    EXPECT_EQ(Concat(parts), want);
    EXPECT_EQ(chunked.stats().records_emitted, serial.stats().records_emitted);
    EXPECT_EQ(chunked.stats().unlocated, serial.stats().unlocated);
  }

  void ExpectHistoryMatches(std::string_view history,
                            const ChangesetStore& changesets,
                            const DateRange& window, CrawlPool* pool) {
    MonthlyCrawler serial(&world_, &road_types_);
    std::vector<UpdateRecord> want;
    const Status want_status =
        serial.CrawlHistory(history, changesets, window, &want);
    MonthlyCrawler chunked(&world_, &road_types_);
    std::vector<std::vector<UpdateRecord>> parts;
    const Status got_status =
        chunked.CrawlHistory(history, changesets, window, pool, &parts);
    EXPECT_EQ(got_status.ToString(), want_status.ToString());
    EXPECT_EQ(Concat(parts), want);
    EXPECT_EQ(chunked.stats().elements_seen, serial.stats().elements_seen);
    EXPECT_EQ(chunked.stats().located_by_changeset,
              serial.stats().located_by_changeset);
  }

  void ExpectChangesetsMatch(std::string_view xml, CrawlPool* pool) {
    ChangesetStore serial, chunked;
    const Status want_status = serial.AddFromXml(xml);
    const Status got_status = chunked.AddFromXml(xml, pool);
    EXPECT_EQ(got_status.ToString(), want_status.ToString());
    ExpectSameStore(chunked, serial, xml);
  }

  WorldMap world_;
  RoadTypeTable road_types_;
};

// The paper-rate inputs of PaperRateCrawlTest (June 2020, seed 1): days,
// the month's history and both changeset files give the serial tuples at
// every fragment count, and the cubes built from them encode to the same
// blobs.
TEST_F(ChunkedCrawlTest, PaperRateCrawlsMatchSerialAtAnyFragmentCount) {
  SynthOptions options;
  options.seed = 1;
  options.base_updates_per_day = 500.0;
  options.period =
      DateRange(Date::FromYmd(2020, 1, 1), Date::FromYmd(2021, 12, 31));
  UpdateGenerator gen(options, &world_, &road_types_);
  const Date month = Date::FromYmd(2020, 6, 1);
  const DateRange june(month, month.month_end());
  const MonthArtifacts month_artifacts = gen.GenerateMonthArtifacts(month);
  std::vector<DayArtifacts> days;
  for (Date d : {Date::FromYmd(2020, 6, 1), Date::FromYmd(2020, 6, 15),
                 Date::FromYmd(2020, 6, 30)}) {
    days.push_back(gen.GenerateDayArtifacts(d));
  }
  ChangesetStore month_changesets;
  ASSERT_TRUE(month_changesets.AddFromXml(month_artifacts.changesets_xml).ok());
  CubeBuilder builder(CubeSchema::PaperScale(), &world_);

  std::vector<UpdateRecord> serial_month;
  MonthlyCrawler serial(&world_, &road_types_);
  ASSERT_TRUE(serial
                  .CrawlHistory(month_artifacts.history_xml, month_changesets,
                                june, &serial_month)
                  .ok());
  std::map<Date, SparseCube> serial_cubes =
      builder.BuildSparseDailyCubes(serial_month);

  for (size_t p : kPartCounts) {
    SCOPED_TRACE("parts " + std::to_string(p));
    CrawlPool pool(p);
    EXPECT_EQ(SplitHistory(month_artifacts.history_xml, p).size(), p);
    ExpectHistoryMatches(month_artifacts.history_xml, month_changesets, june,
                         &pool);
    ExpectChangesetsMatch(month_artifacts.changesets_xml, &pool);
    for (const DayArtifacts& day : days) {
      ChangesetStore changesets;
      ASSERT_TRUE(changesets.AddFromXml(day.changesets_xml, &pool).ok());
      ExpectDiffMatches(day.osc_xml, changesets, &pool);
      ExpectChangesetsMatch(day.changesets_xml, &pool);
    }

    MonthlyCrawler chunked(&world_, &road_types_);
    std::vector<std::vector<UpdateRecord>> parts;
    ASSERT_TRUE(chunked
                    .CrawlHistory(month_artifacts.history_xml,
                                  month_changesets, june, &pool, &parts)
                    .ok());
    EXPECT_EQ(parts.size(), p);
    std::map<Date, SparseCube> cubes = builder.BuildSparseDailyCubes(parts);
    ASSERT_EQ(cubes.size(), serial_cubes.size());
    for (const auto& [day, cube] : cubes) {
      EXPECT_EQ(BlobOf(cube), BlobOf(serial_cubes.at(day))) << day.ToString();
    }
  }
}

// Every cut lands on a start tag of a child of the root, the fragments
// cover the document exactly, and a history cut never separates two
// versions of one element.
TEST_F(ChunkedCrawlTest, SplittersCutBetweenTopLevelElements) {
  HistoryWriter history;
  OscWriter osc;
  ChangesetWriter changesets;
  for (int64_t id = 1; id <= 60; ++id) {
    for (int32_t v = 1; v <= 1 + id % 7; ++v) {
      Element e;
      e.type = id % 3 == 0 ? ElementType::kWay : ElementType::kNode;
      e.meta.id = id;
      e.meta.version = v;
      e.meta.timestamp = OsmTimestamp{Date::FromYmd(2020, 6, 1 + v), 60};
      e.meta.changeset = static_cast<uint64_t>(id);
      if (e.type == ElementType::kWay) e.node_refs = {1, 2, 3};
      history.Add(e);
      osc.Add(static_cast<ChangeAction>((id + v) % 3), e);
    }
    Changeset cs;
    cs.id = static_cast<uint64_t>(id);
    changesets.Add(cs);
  }
  const std::string docs[] = {history.Finish(), osc.Finish(),
                              changesets.Finish()};
  for (size_t p : kPartCounts) {
    SCOPED_TRACE("parts " + std::to_string(p));
    const std::vector<std::string_view> cuts[] = {
        SplitHistory(docs[0], p), SplitOsmChange(docs[1], p),
        SplitChangesets(docs[2], p)};
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(cuts[k].size(), p);
      std::string joined;
      for (size_t i = 0; i < cuts[k].size(); ++i) {
        joined += cuts[k][i];
        if (i == 0) continue;
        const std::string_view f = cuts[k][i];
        EXPECT_EQ(f.data(), cuts[k][i - 1].data() + cuts[k][i - 1].size());
        const bool aligned =
            k == 0   ? f.starts_with("<node ") || f.starts_with("<way ")
            : k == 1 ? f.starts_with("<create>") || f.starts_with("<modify>") ||
                           f.starts_with("<delete>")
                     : f.starts_with("<changeset ");
        EXPECT_TRUE(aligned) << f.substr(0, 40);
      }
      EXPECT_EQ(joined, docs[k]);
    }
    // Each history fragment starts with some element's version 1.
    for (size_t i = 1; i < cuts[0].size(); ++i) {
      EXPECT_NE(cuts[0][i].substr(0, 80).find("version=\"1\""),
                std::string_view::npos)
          << cuts[0][i].substr(0, 80);
    }
  }
}

// Small documents, each a mix of element kinds and runs of versions.
struct MutationBase {
  std::string history;
  std::string osc;
  std::string single_block_osc;
  std::string changesets;
};

MutationBase MakeMutationBase(const WorldMap& world) {
  HistoryWriter history;
  OscWriter osc;
  OscWriter single;
  ChangesetWriter changesets;
  const ZoneId zone = world.FindByName("Kenya").value();
  const LatLon centre = world.zone(zone).bounds.Center();
  for (int64_t id = 1; id <= 24; ++id) {
    // Element 7 has a long run of versions, so that split targets land
    // inside it.
    const int32_t versions = id == 7 ? 40 : 1 + static_cast<int32_t>(id % 4);
    for (int32_t v = 1; v <= versions; ++v) {
      Element e;
      e.type = static_cast<ElementType>(id % 3);
      e.meta.id = id;
      e.meta.version = v;
      e.meta.timestamp = OsmTimestamp{Date::FromYmd(2020, 6, 1 + v % 28), 60};
      e.meta.changeset = static_cast<uint64_t>(100 + id % 5);
      e.meta.visible = v < versions || id % 5 != 0;
      switch (e.type) {
        case ElementType::kNode:
          e.lat = centre.lat + 0.001 * static_cast<double>(v % 3);
          e.lon = centre.lon;
          break;
        case ElementType::kWay:
          e.node_refs = {id, id + (v % 2), 9};
          break;
        case ElementType::kRelation:
          e.members.push_back(RelationMember{ElementType::kWay, id, "outer"});
          break;
      }
      if (v % 3 != 0) e.tags.push_back(Tag{"highway", "residential"});
      if (v == versions) e.tags.push_back(Tag{"name", "a&b <c>"});
      history.Add(e);
      osc.Add(static_cast<ChangeAction>((id + v) % 3), e);
      single.Add(ChangeAction::kModify, e);
    }
  }
  for (uint64_t id = 100; id < 105; ++id) {
    Changeset cs;
    cs.id = id;
    cs.has_bbox = id != 104;
    cs.min_lat = centre.lat - 1;
    cs.max_lat = centre.lat + 1;
    cs.min_lon = centre.lon - 1;
    cs.max_lon = centre.lon + 1;
    cs.tags.push_back(Tag{"comment", "fix & <check>"});
    changesets.Add(cs);
  }
  return MutationBase{history.Finish(), osc.Finish(), single.Finish(),
                      changesets.Finish()};
}

// Positions of the '<' of start tags in `doc`, where a mutation can sit
// between two elements.
std::vector<size_t> TagStarts(const std::string& doc) {
  std::vector<size_t> at;
  for (size_t i = 0; i + 1 < doc.size(); ++i) {
    if (doc[i] == '<' && doc[i + 1] != '/' && doc[i + 1] != '?') at.push_back(i);
  }
  return at;
}

std::string Mutate(const std::string& doc, size_t parts, Rng& rng) {
  std::string out = doc;
  const std::vector<size_t> tags = TagStarts(out);
  // Mutations land near the splitter's targets as often as anywhere.
  const size_t target = out.size() / parts * (1 + rng.Uniform(parts));
  const size_t near = std::min(out.size() - 1, target + rng.Uniform(64));
  const size_t pos = rng.Bernoulli(0.5) ? near : rng.Uniform(out.size());
  const size_t tag = tags[rng.Uniform(tags.size())];
  switch (rng.Uniform(8)) {
    case 0:  // truncation
      out.resize(pos);
      break;
    case 1: {  // an unclosed tag
      const size_t close = out.find("/>", pos);
      if (close != std::string::npos) out.replace(close, 2, ">");
      break;
    }
    case 2: {  // a missing end tag
      const size_t end = out.find("</", pos);
      if (end != std::string::npos) out.erase(end, out.find('>', end) - end + 1);
      break;
    }
    case 3:  // a look-alike start tag inside a comment
      out.insert(std::min(tag, near), "<!-- <node id=\"7\" version=\"2\"/>\n"
                                      "<create> <changeset id=\"1\"> -->");
      break;
    case 4:  // ... and inside CDATA, which the reader skips to its first '>'
      out.insert(std::min(tag, near),
                 "<![CDATA[ <node id=\"3\" version=\"1\"/> <modify> ]]>");
      break;
    case 5:  // a flipped byte
      out[pos] = static_cast<char>(rng.Uniform(256));
      break;
    case 6:  // a deleted span
      out.erase(pos, 1 + rng.Uniform(24));
      break;
    case 7:  // a duplicated element start
      out.insert(tag, out.substr(tag, 1 + rng.Uniform(40)));
      break;
  }
  return out;
}

// Seeded mutations: truncation, unclosed tags, look-alike tags in comments
// and CDATA, targets inside one element's run of versions, and a
// single-block osmChange. Whatever the input, the chunked crawls give the
// serial records or the serial error text.
TEST_F(ChunkedCrawlTest, MutatedInputsGiveSerialRecordsOrSerialError) {
  const MutationBase base = MakeMutationBase(world_);
  ChangesetStore changesets;
  ASSERT_TRUE(changesets.AddFromXml(base.changesets).ok());
  const DateRange all;  // every version
  CrawlPool pools[] = {CrawlPool(2), CrawlPool(3), CrawlPool(4)};
  for (CrawlPool& pool : pools) {
    EXPECT_EQ(SplitOsmChange(base.single_block_osc, pool.parts()).size(), 1u);
    ExpectDiffMatches(base.single_block_osc, changesets, &pool);
    ExpectDiffMatches(base.osc, changesets, &pool);
    ExpectHistoryMatches(base.history, changesets, all, &pool);
    ExpectChangesetsMatch(base.changesets, &pool);
  }
  Rng rng(20260419);
  for (int round = 0; round < 400; ++round) {
    CrawlPool& pool = pools[rng.Uniform(3)];
    SCOPED_TRACE("round " + std::to_string(round) + ", parts " +
                 std::to_string(pool.parts()));
    const std::string osc = Mutate(
        rng.Bernoulli(0.2) ? base.single_block_osc : base.osc, pool.parts(),
        rng);
    ExpectDiffMatches(osc, changesets, &pool);
    ExpectHistoryMatches(Mutate(base.history, pool.parts(), rng), changesets,
                         all, &pool);
    ExpectChangesetsMatch(Mutate(base.changesets, pool.parts(), rng), &pool);
    if (HasFatalFailure() || HasNonfatalFailure()) break;
  }
}

// A cut inside one element's run of versions parses cleanly in both
// fragments, so only the seam check can catch it: the chunked crawl would
// otherwise call the first version after the cut a create.
TEST_F(ChunkedCrawlTest, ForgedMisSplitTripsTheSeamCheck) {
  const MutationBase base = MakeMutationBase(world_);
  ChangesetStore changesets;
  ASSERT_TRUE(changesets.AddFromXml(base.changesets).ok());
  // Element 7's third version, which follows its second.
  const size_t cut =
      base.history.find("<relation id=\"7\" version=\"3\"") != std::string::npos
          ? base.history.find("<relation id=\"7\" version=\"3\"")
          : base.history.find("id=\"7\" version=\"3\"");
  ASSERT_NE(cut, std::string::npos);
  const size_t start = base.history.rfind('<', cut);
  const std::string_view xml = base.history;
  const std::string_view fragments[] = {xml.substr(0, start),
                                        xml.substr(start)};
  CrawlPool pool(2);
  MonthlyCrawler crawler(&world_, &road_types_);
  std::vector<std::vector<UpdateRecord>> parts;
  const Status s = crawler.CrawlHistoryFragments(fragments, changesets,
                                                 DateRange(), &pool, &parts);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("split the versions"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(crawler.stats().elements_seen, 0u);

  // Cut one element later, the same fragments crawl cleanly.
  const size_t next = base.history.find("id=\"8\" version=\"1\"");
  ASSERT_NE(next, std::string::npos);
  const size_t good = base.history.rfind('<', next);
  const std::string_view good_fragments[] = {xml.substr(0, good),
                                             xml.substr(good)};
  ASSERT_TRUE(crawler
                  .CrawlHistoryFragments(good_fragments, changesets,
                                         DateRange(), &pool, &parts)
                  .ok());
  MonthlyCrawler serial(&world_, &road_types_);
  std::vector<UpdateRecord> want;
  ASSERT_TRUE(serial.CrawlHistory(xml, changesets, DateRange(), &want).ok());
  EXPECT_EQ(Concat(parts), want);
}

// The crawl counters move once per crawl by its totals, which equal the
// serial crawl's.
TEST_F(ChunkedCrawlTest, CounterTotalsEqualTheSerialCrawls) {
  const MutationBase base = MakeMutationBase(world_);
  ChangesetStore changesets;
  ASSERT_TRUE(changesets.AddFromXml(base.changesets).ok());
  MetricsRegistry serial_metrics, chunked_metrics;
  DailyCrawler serial(&world_, &road_types_, &serial_metrics);
  DailyCrawler chunked(&world_, &road_types_, &chunked_metrics);
  CrawlPool pool(3);
  ASSERT_GT(SplitOsmChange(base.osc, pool.parts()).size(), 1u);
  std::vector<UpdateRecord> out;
  std::vector<std::vector<UpdateRecord>> parts;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(serial.CrawlDiff(base.osc, changesets, &out).ok());
    ASSERT_TRUE(chunked.CrawlDiff(base.osc, changesets, &pool, &parts).ok());
  }
  // A failed chunked crawl counts once, as its serial re-run.
  const std::string broken = base.osc.substr(0, base.osc.size() - 40);
  EXPECT_FALSE(serial.CrawlDiff(broken, changesets, &out).ok());
  EXPECT_FALSE(chunked.CrawlDiff(broken, changesets, &pool, &parts).ok());
  for (const char* name :
       {"rased_crawl_elements_total", "rased_crawl_records_total"}) {
    Counter* want = serial_metrics.GetCounter(name, "");
    Counter* got = chunked_metrics.GetCounter(name, "");
    EXPECT_GT(want->value(), 0u) << name;
    EXPECT_EQ(got->value(), want->value()) << name;
  }
  EXPECT_EQ(chunked.stats().elements_seen, serial.stats().elements_seen);
  EXPECT_EQ(chunked.stats().records_emitted, serial.stats().records_emitted);
}

size_t ThreadCount() {
  size_t n = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

// A Rased instance starts at most DefaultParts() - 1 helper threads, once,
// and its chunked ingest gives the same cubes and samples as the serial
// records path.
TEST_F(ChunkedCrawlTest, RasedStartsItsHelpersOnce) {
  TempDir dir("chunked-crawl");
  RasedOptions options;
  options.dir = dir.path();
  options.schema = CubeSchema::BenchScale();
  // A thread started and joined first puts a runtime's own threads (a
  // sanitizer's, started with the first thread) into the baseline.
  std::thread([] {}).join();
  const size_t before = ThreadCount();
  auto rased = Rased::Create(options);
  ASSERT_TRUE(rased.ok()) << rased.status().ToString();
  SynthOptions synth;
  synth.seed = 5;
  synth.base_updates_per_day = 20.0;
  UpdateGenerator gen(synth, &rased.value()->world(),
                      rased.value()->road_types());
  const Date month = Date::FromYmd(2021, 2, 1);
  size_t after_first = 0;
  for (Date d = month; d <= month.month_end(); d = d.next()) {
    DayArtifacts day = gen.GenerateDayArtifacts(d);
    ASSERT_TRUE(rased.value()
                    ->IngestDailyArtifacts(d, day.osc_xml, day.changesets_xml)
                    .ok());
    if (after_first == 0) after_first = ThreadCount();
  }
  MonthArtifacts artifacts = gen.GenerateMonthArtifacts(month);
  const Status applied = rased.value()->ApplyMonthlyArtifacts(
      month, artifacts.history_xml, artifacts.changesets_xml);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  if (before > 0) {
    EXPECT_EQ(after_first, before + CrawlPool::DefaultParts() - 1);
    EXPECT_EQ(ThreadCount(), after_first);
  }
}

}  // namespace
}  // namespace rased
