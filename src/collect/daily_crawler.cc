#include "collect/daily_crawler.h"

namespace rased {

Status DailyCrawler::CrawlDiff(std::string_view osc_xml,
                               const ChangesetStore& changesets,
                               std::vector<UpdateRecord>* out) {
  // One record, refilled per change: the crawl reads only the fields it
  // emits and allocates nothing per element.
  OscReader reader(osc_xml);
  ChangeAction action = ChangeAction::kCreate;
  ElementVersion e;
  for (;;) {
    RASED_ASSIGN_OR_RETURN(bool more, reader.Next(&action, &e));
    if (!more) return Status::OK();
    ++stats_.elements_seen;
    if (elements_counter_ != nullptr) elements_counter_->Increment();

    UpdateRecord r;
    r.element_type = e.type;
    r.date = e.timestamp.date;
    r.changeset_id = e.changeset;
    const std::string* highway = e.FindHighway();
    r.road_type =
        highway != nullptr ? road_types_->Intern(*highway) : kRoadTypeNone;
    r.update_type = action == ChangeAction::kCreate ? UpdateType::kNew
                                                    : kProvisionalUpdate;

    // Locate the update. Nodes carry coordinates; ways and relations are
    // resolved through their changeset's bounding box centre (Section V).
    if (e.type == ElementType::kNode && e.visible) {
      r.lat = e.lat;
      r.lon = e.lon;
      r.country = world_->CountryAt(LatLon{e.lat, e.lon});
      ++stats_.located_by_coordinates;
    } else {
      const ChangesetCentre* cs = changesets.Find(e.changeset);
      if (cs != nullptr && cs->has_bbox) {
        r.lat = cs->lat;
        r.lon = cs->lon;
        r.country = world_->CountryAt(LatLon{r.lat, r.lon});
        ++stats_.located_by_changeset;
      } else {
        r.country = kZoneUnknown;
        ++stats_.unlocated;
      }
    }

    out->push_back(r);
    ++stats_.records_emitted;
    if (records_counter_ != nullptr) records_counter_->Increment();
  }
}

}  // namespace rased
