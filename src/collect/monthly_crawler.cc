#include "collect/monthly_crawler.h"

#include <utility>

#include "osm/history.h"

namespace rased {

Status MonthlyCrawler::CrawlHistory(std::string_view history_xml,
                                    const ChangesetStore& changesets,
                                    const DateRange& window,
                                    std::vector<UpdateRecord>* out) {
  // Consecutive versions of one element are adjacent in the file. Two
  // records take turns: each version is read into `current`, classified
  // against `previous`, then the two swap, so no version is copied.
  HistoryReader reader(history_xml);
  ElementVersion current, previous;
  bool have_previous = false;
  for (;;) {
    RASED_ASSIGN_OR_RETURN(bool more, reader.Next(&current));
    if (!more) return Status::OK();
    ++stats_.elements_seen;
    const ElementVersion* prev = nullptr;
    if (have_previous && previous.type == current.type &&
        previous.id == current.id) {
      prev = &previous;
    }
    Emit(current, prev, changesets, window, out);
    std::swap(current, previous);
    have_previous = true;
  }
}

void MonthlyCrawler::Emit(const ElementVersion& current,
                          const ElementVersion* previous,
                          const ChangesetStore& changesets,
                          const DateRange& window,
                          std::vector<UpdateRecord>* out) {
  Date date = current.timestamp.date;
  if (!window.empty() && !window.Contains(date)) return;

  UpdateRecord r;
  r.element_type = current.type;
  r.date = date;
  r.changeset_id = current.changeset;

  // Road type: from the current version's tags; a deleted version has no
  // tags, so fall back to the previous version's.
  const std::string* highway = current.FindHighway();
  if (highway == nullptr && previous != nullptr) {
    highway = previous->FindHighway();
  }
  r.road_type =
      highway != nullptr ? road_types_->Intern(*highway) : kRoadTypeNone;

  // Four-way classification (Section V, monthly crawler).
  if (!current.visible) {
    r.update_type = UpdateType::kDelete;
  } else if (current.version == 1 || previous == nullptr) {
    r.update_type = UpdateType::kNew;
  } else if (ElementVersion::GeometryDiffers(current, *previous)) {
    r.update_type = UpdateType::kGeometry;
  } else {
    r.update_type = UpdateType::kMetadata;
  }

  // Location: node coordinates (previous version's for deletes, which may
  // have none of their own), else the changeset bbox centre.
  const ElementVersion* located = &current;
  if (current.type == ElementType::kNode && !current.visible &&
      previous != nullptr) {
    located = previous;
  }
  if (located->type == ElementType::kNode &&
      (located->visible || located == previous)) {
    r.lat = located->lat;
    r.lon = located->lon;
    r.country = world_->CountryAt(LatLon{r.lat, r.lon});
    ++stats_.located_by_coordinates;
  } else {
    const ChangesetCentre* cs = changesets.Find(current.changeset);
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
}

}  // namespace rased
