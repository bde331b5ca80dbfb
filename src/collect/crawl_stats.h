#ifndef RASED_COLLECT_CRAWL_STATS_H_
#define RASED_COLLECT_CRAWL_STATS_H_

#include <cstdint>

namespace rased {

/// Statistics of one crawl pass, surfaced in maintenance benchmarks.
struct CrawlStats {
  uint64_t elements_seen = 0;
  uint64_t records_emitted = 0;
  uint64_t located_by_coordinates = 0;  // nodes with lat/lon
  uint64_t located_by_changeset = 0;    // ways/relations via changeset bbox
  uint64_t unlocated = 0;               // no changeset bbox available

  CrawlStats& operator+=(const CrawlStats& other) {
    elements_seen += other.elements_seen;
    records_emitted += other.records_emitted;
    located_by_coordinates += other.located_by_coordinates;
    located_by_changeset += other.located_by_changeset;
    unlocated += other.unlocated;
    return *this;
  }
};

}  // namespace rased

#endif  // RASED_COLLECT_CRAWL_STATS_H_
