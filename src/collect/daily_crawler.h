#ifndef RASED_COLLECT_DAILY_CRAWLER_H_
#define RASED_COLLECT_DAILY_CRAWLER_H_

#include <string_view>
#include <vector>

#include "collect/changeset_store.h"
#include "collect/chunked_crawl.h"
#include "collect/crawl_stats.h"
#include "collect/update_record.h"
#include "geo/world_map.h"
#include "obs/metrics_registry.h"
#include "osm/osc.h"
#include "osm/road_types.h"

namespace rased {

/// The daily crawler (Section V): consumes one day's diff (.osc) file plus
/// the day's changeset metadata and produces UpdateList tuples.
///
/// Seven of the eight attributes are filled directly; the UpdateType is
/// provisional — only "new" vs "updated" is inferable from diffs, so
/// updated tuples land in the kProvisionalUpdate slot until the monthly
/// crawler reclassifies (see UpdateType documentation).
///
/// A crawl is the stage half of the stage-then-publish ingest protocol:
/// it only reads XML and emits tuples, so nothing it does is visible to
/// queries — the day becomes queryable in one atomic catalog publication
/// after the index appends the cube built from these tuples.
class DailyCrawler {
 public:
  /// The map and road-type table must outlive the crawler. `metrics`, when
  /// non-null, receives live rased_crawl_* counters (elements seen,
  /// records emitted), added once per crawl, on top of the per-crawler
  /// stats() snapshot.
  DailyCrawler(const WorldMap* world, const RoadTypeTable* road_types,
               MetricsRegistry* metrics = nullptr)
      : world_(world), road_types_(road_types) {
    if (metrics != nullptr) {
      elements_counter_ = metrics->GetCounter("rased_crawl_elements_total",
                                              "OSM diff elements crawled");
      records_counter_ = metrics->GetCounter(
          "rased_crawl_records_total", "UpdateList tuples emitted by crawls");
    }
  }

  /// Crawls one diff document against the given changeset metadata,
  /// appending tuples to `out`.
  Status CrawlDiff(std::string_view osc_xml, const ChangesetStore& changesets,
                   std::vector<UpdateRecord>* out);

  /// The same crawl, with the diff cut into blocks (SplitOsmChange) that
  /// `pool` crawls at once. `parts` gets one vector per fragment, in file
  /// order; together they hold what CrawlDiff emits, and stats() and the
  /// counters move as CrawlDiff moves them. On malformed input the serial
  /// crawl runs again into parts[0] and its error is returned.
  Status CrawlDiff(std::string_view osc_xml, const ChangesetStore& changesets,
                   CrawlPool* pool, std::vector<std::vector<UpdateRecord>>* parts);

  const CrawlStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CrawlStats{}; }

 private:
  /// Crawls one fragment, touching nothing but its arguments.
  Status CrawlFragment(std::string_view xml, XmlFragment where,
                       const ChangesetStore& changesets,
                       std::vector<UpdateRecord>* out,
                       CrawlStats* stats) const;
  /// Adds one crawl's counts to stats() and the counters.
  void Count(const CrawlStats& crawl);

  const WorldMap* world_;
  const RoadTypeTable* road_types_;
  CrawlStats stats_;
  Counter* elements_counter_ = nullptr;
  Counter* records_counter_ = nullptr;
};

}  // namespace rased

#endif  // RASED_COLLECT_DAILY_CRAWLER_H_
