#include "collect/monthly_crawler.h"

#include <utility>

#include "osm/history.h"
#include "util/str_util.h"

namespace rased {

Status MonthlyCrawler::CrawlHistory(std::string_view history_xml,
                                    const ChangesetStore& changesets,
                                    const DateRange& window,
                                    std::vector<UpdateRecord>* out) {
  CrawlStats crawl;
  Ends ends;
  Status s = CrawlFragment(history_xml, XmlFragment{}, changesets, window, out,
                           &crawl, &ends);
  stats_ += crawl;
  return s;
}

Status MonthlyCrawler::CrawlHistory(
    std::string_view history_xml, const ChangesetStore& changesets,
    const DateRange& window, CrawlPool* pool,
    std::vector<std::vector<UpdateRecord>>* parts) {
  const std::vector<std::string_view> fragments =
      SplitHistory(history_xml, pool->parts());
  if (fragments.size() > 1 &&
      CrawlHistoryFragments(fragments, changesets, window, pool, parts).ok()) {
    return Status::OK();
  }
  // One fragment, or a failed one: the serial crawl, whose error (line
  // number included) is the one to report.
  parts->assign(1, {});
  return CrawlHistory(history_xml, changesets, window, &parts->front());
}

Status MonthlyCrawler::CrawlHistoryFragments(
    std::span<const std::string_view> fragments,
    const ChangesetStore& changesets, const DateRange& window, CrawlPool* pool,
    std::vector<std::vector<UpdateRecord>>* parts) {
  const size_t n = fragments.size();
  parts->clear();
  parts->resize(n);
  std::vector<CrawlStats> stats(n);
  std::vector<Ends> ends(n);
  RASED_RETURN_IF_ERROR(pool->Run(n, [&](size_t i) {
    return CrawlFragment(fragments[i], XmlFragment::Of(i, n), changesets,
                         window, &(*parts)[i], &stats[i], &ends[i]);
  }));
  const Ends* before = nullptr;  // the last fragment that held a version
  for (const Ends& e : ends) {
    if (!e.any) continue;
    if (before != nullptr && before->last_type == e.first_type &&
        before->last_id == e.first_id) {
      return Status::FailedPrecondition(
          StrFormat("history fragments split the versions of %s %lld",
                    std::string(ElementTypeName(e.first_type)).c_str(),
                    static_cast<long long>(e.first_id)));
    }
    before = &e;
  }
  for (const CrawlStats& fragment : stats) stats_ += fragment;
  return Status::OK();
}

Status MonthlyCrawler::CrawlFragment(std::string_view xml, XmlFragment where,
                                     const ChangesetStore& changesets,
                                     const DateRange& window,
                                     std::vector<UpdateRecord>* out,
                                     CrawlStats* stats, Ends* ends) const {
  // Consecutive versions of one element are adjacent in the file. Two
  // records take turns: each version is read into `current`, classified
  // against `previous`, then the two swap, so no version is copied.
  HistoryReader reader(xml, where);
  ElementVersion current, previous;
  for (;;) {
    RASED_ASSIGN_OR_RETURN(bool more, reader.Next(&current));
    if (!more) return Status::OK();
    ++stats->elements_seen;
    const ElementVersion* prev = nullptr;
    if (ends->any && previous.type == current.type &&
        previous.id == current.id) {
      prev = &previous;
    }
    Emit(current, prev, changesets, window, out, stats);
    if (!ends->any) {
      ends->any = true;
      ends->first_type = current.type;
      ends->first_id = current.id;
    }
    ends->last_type = current.type;
    ends->last_id = current.id;
    std::swap(current, previous);
  }
}

void MonthlyCrawler::Emit(const ElementVersion& current,
                          const ElementVersion* previous,
                          const ChangesetStore& changesets,
                          const DateRange& window,
                          std::vector<UpdateRecord>* out,
                          CrawlStats* stats) const {
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
      highway != nullptr ? road_types_->Lookup(*highway) : kRoadTypeNone;

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
    ++stats->located_by_coordinates;
  } else {
    const ChangesetCentre* cs = changesets.Find(current.changeset);
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

}  // namespace rased
