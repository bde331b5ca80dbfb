#ifndef RASED_COLLECT_MONTHLY_CRAWLER_H_
#define RASED_COLLECT_MONTHLY_CRAWLER_H_

#include <span>
#include <string_view>
#include <vector>

#include "collect/changeset_store.h"
#include "collect/chunked_crawl.h"
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
  MonthlyCrawler(const WorldMap* world, const RoadTypeTable* road_types)
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

  /// The same crawl, with the history cut where the element changes
  /// (SplitHistory) and the fragments crawled at once on `pool`. `parts`
  /// gets one vector per fragment, in file order; together they hold what
  /// CrawlHistory emits. If CrawlHistoryFragments fails, the serial crawl
  /// runs again into parts[0] and its status is returned.
  Status CrawlHistory(std::string_view history_xml,
                      const ChangesetStore& changesets,
                      const DateRange& window, CrawlPool* pool,
                      std::vector<std::vector<UpdateRecord>>* parts);

  /// Crawls the given fragments of one history document on `pool`, with
  /// no serial re-run. It fails when any fragment fails, and at a seam
  /// where the last version of one fragment and the first of the next
  /// belong to the same element: there the serial crawl would have
  /// compared the two versions, and the chunked one would call the second
  /// a create. stats() moves only on success.
  Status CrawlHistoryFragments(std::span<const std::string_view> fragments,
                               const ChangesetStore& changesets,
                               const DateRange& window, CrawlPool* pool,
                               std::vector<std::vector<UpdateRecord>>* parts);

  const CrawlStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CrawlStats{}; }

 private:
  /// The elements of a fragment's first and last versions.
  struct Ends {
    bool any = false;
    ElementType first_type = ElementType::kNode;
    int64_t first_id = 0;
    ElementType last_type = ElementType::kNode;
    int64_t last_id = 0;
  };

  /// Crawls one fragment, touching nothing but its arguments.
  Status CrawlFragment(std::string_view xml, XmlFragment where,
                       const ChangesetStore& changesets,
                       const DateRange& window, std::vector<UpdateRecord>* out,
                       CrawlStats* stats, Ends* ends) const;
  void Emit(const ElementVersion& current, const ElementVersion* previous,
            const ChangesetStore& changesets, const DateRange& window,
            std::vector<UpdateRecord>* out, CrawlStats* stats) const;

  const WorldMap* world_;
  const RoadTypeTable* road_types_;
  CrawlStats stats_;
};

}  // namespace rased

#endif  // RASED_COLLECT_MONTHLY_CRAWLER_H_
