#include "collect/daily_crawler.h"

namespace rased {

Status DailyCrawler::CrawlDiff(std::string_view osc_xml,
                               const ChangesetStore& changesets,
                               std::vector<UpdateRecord>* out) {
  CrawlStats crawl;
  Status s = CrawlFragment(osc_xml, XmlFragment{}, changesets, out, &crawl);
  Count(crawl);
  return s;
}

Status DailyCrawler::CrawlDiff(std::string_view osc_xml,
                               const ChangesetStore& changesets,
                               CrawlPool* pool,
                               std::vector<std::vector<UpdateRecord>>* parts) {
  const std::vector<std::string_view> fragments =
      SplitOsmChange(osc_xml, pool->parts());
  const size_t n = fragments.size();
  parts->clear();
  parts->resize(n);
  if (n == 1) return CrawlDiff(osc_xml, changesets, &parts->front());
  std::vector<CrawlStats> stats(n);
  Status s = pool->Run(n, [&](size_t i) {
    return CrawlFragment(fragments[i], XmlFragment::Of(i, n), changesets,
                         &(*parts)[i], &stats[i]);
  });
  if (!s.ok()) {
    // The serial crawl reports the error, line number included.
    parts->assign(1, {});
    return CrawlDiff(osc_xml, changesets, &parts->front());
  }
  CrawlStats crawl;
  for (const CrawlStats& fragment : stats) crawl += fragment;
  Count(crawl);
  return Status::OK();
}

void DailyCrawler::Count(const CrawlStats& crawl) {
  stats_ += crawl;
  if (elements_counter_ != nullptr) {
    elements_counter_->Increment(crawl.elements_seen);
  }
  if (records_counter_ != nullptr) {
    records_counter_->Increment(crawl.records_emitted);
  }
}

Status DailyCrawler::CrawlFragment(std::string_view xml, XmlFragment where,
                                   const ChangesetStore& changesets,
                                   std::vector<UpdateRecord>* out,
                                   CrawlStats* stats) const {
  // One record, refilled per change: the crawl reads only the fields it
  // emits and allocates nothing per element.
  OscReader reader(xml, where);
  ChangeAction action = ChangeAction::kCreate;
  ElementVersion e;
  for (;;) {
    RASED_ASSIGN_OR_RETURN(bool more, reader.Next(&action, &e));
    if (!more) return Status::OK();
    ++stats->elements_seen;

    UpdateRecord r;
    r.element_type = e.type;
    r.date = e.timestamp.date;
    r.changeset_id = e.changeset;
    const std::string* highway = e.FindHighway();
    r.road_type =
        highway != nullptr ? road_types_->Lookup(*highway) : kRoadTypeNone;
    r.update_type = action == ChangeAction::kCreate ? UpdateType::kNew
                                                    : kProvisionalUpdate;

    // Locate the update. Nodes carry coordinates; ways and relations are
    // resolved through their changeset's bounding box centre (Section V).
    if (e.type == ElementType::kNode && e.visible) {
      r.lat = e.lat;
      r.lon = e.lon;
      r.country = world_->CountryAt(LatLon{e.lat, e.lon});
      ++stats->located_by_coordinates;
    } else {
      const ChangesetCentre* cs = changesets.Find(e.changeset);
      if (cs != nullptr && cs->has_bbox) {
        r.lat = cs->lat;
        r.lon = cs->lon;
        r.country = world_->CountryAt(LatLon{r.lat, r.lon});
        ++stats->located_by_changeset;
      } else {
        r.country = kZoneUnknown;
        ++stats->unlocated;
      }
    }

    out->push_back(r);
    ++stats->records_emitted;
  }
}

}  // namespace rased
