#ifndef RASED_COLLECT_MONTHLY_CRAWLER_H_
#define RASED_COLLECT_MONTHLY_CRAWLER_H_

#include <string_view>
#include <vector>

#include "collect/changeset_store.h"
#include "collect/crawl_stats.h"
#include "collect/update_record.h"
#include "geo/world_map.h"
#include "osm/element.h"
#include "osm/road_types.h"
#include "util/date.h"

namespace rased {

/// The monthly crawler (Section V): walks a full-history file, compares
/// every two consecutive versions of an element, and classifies each update
/// as create / delete / geometry update / metadata update — the information
/// diffs cannot provide. Its output replaces the month's provisional daily
/// UpdateLists (see TemporalIndex::RebuildMonth). Like the daily crawl,
/// this is pure staging: the month's replacement cubes are written to
/// fresh pages off to the side and swapped in as one atomic catalog
/// publication, so queries either see the whole reclassified month or
/// none of it — never a mix.
///
/// Full-history files store all versions of one element consecutively in
/// ascending version order, which is what the pairwise comparison relies
/// on.
class MonthlyCrawler {
 public:
  MonthlyCrawler(const WorldMap* world, RoadTypeTable* road_types)
      : world_(world), road_types_(road_types) {}

  /// Crawls a full-history document, emitting one tuple per element
  /// version whose date falls inside `window` (pass an unbounded range to
  /// take everything). Version 1 is a create; an invisible version is a
  /// delete; otherwise the version is compared with its predecessor:
  /// changed coordinates / node list / member list => geometry update,
  /// changed tags only => metadata update.
  Status CrawlHistory(std::string_view history_xml,
                      const ChangesetStore& changesets,
                      const DateRange& window,
                      std::vector<UpdateRecord>* out);

  const CrawlStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CrawlStats{}; }

 private:
  void Emit(const ElementVersion& current, const ElementVersion* previous,
            const ChangesetStore& changesets, const DateRange& window,
            std::vector<UpdateRecord>* out);

  const WorldMap* world_;
  RoadTypeTable* road_types_;
  CrawlStats stats_;
};

}  // namespace rased

#endif  // RASED_COLLECT_MONTHLY_CRAWLER_H_
