#include "synth/update_generator.h"

#include <algorithm>

#include "geo/latlon.h"
#include "osm/changeset.h"
#include "osm/history.h"
#include "osm/osc.h"
#include "util/logging.h"
#include "util/random.h"

namespace rased {

namespace {

/// Cumulative distribution for O(log n) categorical sampling.
class Categorical {
 public:
  explicit Categorical(const std::vector<double>& probs) {
    cumulative_.reserve(probs.size());
    double sum = 0.0;
    for (double p : probs) {
      sum += p;
      cumulative_.push_back(sum);
    }
  }

  uint32_t Sample(Rng& rng) const {
    double u = rng.NextDouble() * cumulative_.back();
    auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
    if (it == cumulative_.end()) --it;
    return static_cast<uint32_t>(it - cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

uint64_t DaySeed(uint64_t seed, Date day) {
  uint64_t mix = seed * 0x9e3779b97f4a7c15ull +
                 static_cast<uint64_t>(
                     static_cast<int64_t>(day.days_since_epoch()));
  return mix ^ (mix >> 29);
}

OsmTimestamp TimestampFor(Date day, size_t idx, size_t total) {
  OsmTimestamp ts;
  ts.date = day;
  ts.sec_of_day =
      total > 1 ? static_cast<int32_t>((idx * 86399) / (total - 1)) : 43200;
  return ts;
}

}  // namespace

UpdateGenerator::UpdateGenerator(const SynthOptions& options,
                                 const WorldMap* world,
                                 const RoadTypeTable* road_types)
    : options_(options),
      world_(world),
      road_types_(road_types),
      activity_(options, world,
                static_cast<uint32_t>(road_types->capacity())) {}

uint64_t UpdateGenerator::ChangesetIdFor(Date day, uint32_t seq) {
  return static_cast<uint64_t>(
             static_cast<int64_t>(day.days_since_epoch())) *
             1000000ull +
         seq;
}

std::vector<UpdateRecord> UpdateGenerator::GenerateDayRecords(
    Date day) const {
  Rng rng(DaySeed(options_.seed, day));
  Categorical element_dist(activity_.element_mix());
  Categorical road_dist(activity_.road_mix());
  Categorical update_dist(activity_.update_mix());

  std::vector<UpdateRecord> records;
  uint32_t changeset_seq = 0;
  for (ZoneId country : world_->country_ids()) {
    uint64_t n = rng.Poisson(activity_.CountryIntensity(country, day));
    uint64_t emitted = 0;
    while (emitted < n) {
      uint64_t cs_size = std::min<uint64_t>(
          n - emitted, 1 + rng.Poisson(options_.changeset_mean_size - 1.0));
      uint64_t cs_id = ChangesetIdFor(day, changeset_seq++);
      for (uint64_t i = 0; i < cs_size; ++i) {
        UpdateRecord r;
        r.element_type = static_cast<ElementType>(element_dist.Sample(rng));
        r.date = day;
        r.country = country;
        LatLon p = world_->RandomPointIn(country, rng);
        r.lat = p.lat;
        r.lon = p.lon;
        r.road_type = static_cast<RoadTypeId>(road_dist.Sample(rng));
        r.update_type = static_cast<UpdateType>(update_dist.Sample(rng));
        r.changeset_id = cs_id;
        records.push_back(r);
      }
      emitted += cs_size;
    }
  }
  return records;
}

namespace {

/// Synthesizes the element after-image for one record. `uniq` must be
/// unique per record so element ids never collide across the history.
Element MakeElement(const UpdateRecord& record, const RoadTypeTable& roads,
                    int64_t uniq, const OsmTimestamp& ts, int32_t version,
                    bool visible) {
  Element e;
  e.type = record.element_type;
  e.meta.id = uniq;
  e.meta.version = version;
  e.meta.timestamp = ts;
  e.meta.changeset = record.changeset_id;
  e.meta.uid = 1000 + static_cast<uint64_t>(uniq % 997);
  e.meta.user = "mapper" + std::to_string(e.meta.uid);
  e.meta.visible = visible;
  switch (e.type) {
    case ElementType::kNode:
      e.lat = record.lat;
      e.lon = record.lon;
      break;
    case ElementType::kWay:
      for (int k = 0; k < 4; ++k) e.node_refs.push_back(uniq * 10 + k);
      break;
    case ElementType::kRelation: {
      RelationMember m;
      m.type = ElementType::kWay;
      m.ref = uniq * 10;
      m.role = "outer";
      e.members.push_back(m);
      break;
    }
  }
  if (record.road_type != kRoadTypeNone) {
    e.tags.push_back(Tag{"highway", roads.Name(record.road_type)});
  }
  return e;
}

/// Emits the changeset metadata for consecutive records sharing an id.
void EmitChangesets(const std::vector<UpdateRecord>& records, Date day,
                    ChangesetWriter* writer) {
  size_t i = 0;
  while (i < records.size()) {
    size_t j = i;
    BoundingBox box = BoundingBox::Empty();
    while (j < records.size() &&
           records[j].changeset_id == records[i].changeset_id) {
      box.Extend(LatLon{records[j].lat, records[j].lon});
      ++j;
    }
    Changeset cs;
    cs.id = records[i].changeset_id;
    cs.created_at = OsmTimestamp{day, 0};
    cs.closed_at = OsmTimestamp{day, 86399};
    cs.open = false;
    cs.uid = 1000 + cs.id % 997;
    cs.user = "mapper" + std::to_string(cs.uid);
    cs.num_changes = static_cast<uint32_t>(j - i);
    if (box.IsValid()) {
      cs.has_bbox = true;
      cs.min_lat = box.min_lat;
      cs.min_lon = box.min_lon;
      cs.max_lat = box.max_lat;
      cs.max_lon = box.max_lon;
    }
    writer->Add(cs);
    i = j;
  }
}

int64_t UniqueElementId(Date day, size_t idx) {
  return static_cast<int64_t>(day.days_since_epoch()) * 1000000000ll +
         static_cast<int64_t>(idx) + 1;
}

}  // namespace

DayArtifacts UpdateGenerator::GenerateDayArtifacts(Date day) const {
  std::vector<UpdateRecord> records = GenerateDayRecords(day);
  DayArtifacts artifacts;

  OscWriter osc;
  for (size_t i = 0; i < records.size(); ++i) {
    const UpdateRecord& r = records[i];
    OsmTimestamp ts = TimestampFor(day, i, records.size());
    int32_t version = r.update_type == UpdateType::kNew ? 1 : 2;
    Element e = MakeElement(r, *road_types_, UniqueElementId(day, i), ts,
                            version, /*visible=*/true);
    ChangeAction action;
    switch (r.update_type) {
      case UpdateType::kNew:
        action = ChangeAction::kCreate;
        break;
      case UpdateType::kDelete:
        action = ChangeAction::kDelete;
        break;
      default:
        action = ChangeAction::kModify;
    }
    osc.Add(action, e);
  }
  artifacts.osc_xml = osc.Finish();

  ChangesetWriter cs_writer;
  EmitChangesets(records, day, &cs_writer);
  artifacts.changesets_xml = cs_writer.Finish();
  return artifacts;
}

MonthArtifacts UpdateGenerator::GenerateMonthArtifacts(
    Date month_start) const {
  RASED_CHECK(month_start.is_month_start());
  MonthArtifacts artifacts;
  HistoryWriter history;
  ChangesetWriter cs_writer;
  // A timestamp safely before the month, so the prior versions synthesized
  // below fall outside any window covering this month.
  const Date before = month_start.prev();
  const OsmTimestamp before_ts{before, 43200};

  Date month_end = month_start.month_end();
  for (Date day = month_start; day <= month_end; day = day.next()) {
    std::vector<UpdateRecord> records = GenerateDayRecords(day);
    for (size_t i = 0; i < records.size(); ++i) {
      const UpdateRecord& r = records[i];
      OsmTimestamp ts = TimestampFor(day, i, records.size());
      int64_t uniq = UniqueElementId(day, i);
      switch (r.update_type) {
        case UpdateType::kNew:
          history.Add(MakeElement(r, *road_types_, uniq, ts, 1, true));
          break;
        case UpdateType::kDelete: {
          history.Add(MakeElement(r, *road_types_, uniq, before_ts, 1, true));
          Element gone = MakeElement(r, *road_types_, uniq, ts, 2, false);
          gone.node_refs.clear();
          gone.members.clear();
          gone.tags.clear();
          history.Add(gone);
          break;
        }
        case UpdateType::kGeometry: {
          Element v1 = MakeElement(r, *road_types_, uniq, before_ts, 1, true);
          Element v2 = MakeElement(r, *road_types_, uniq, ts, 2, true);
          switch (v2.type) {
            case ElementType::kNode:
              v2.lat = v2.lat > 0 ? v2.lat - 0.0001 : v2.lat + 0.0001;
              break;
            case ElementType::kWay:
              v2.node_refs.push_back(uniq * 10 + 9);
              break;
            case ElementType::kRelation:
              v2.members.push_back(
                  RelationMember{ElementType::kNode, uniq * 10 + 9, "via"});
              break;
          }
          history.Add(v1);
          history.Add(v2);
          break;
        }
        case UpdateType::kMetadata: {
          Element v1 = MakeElement(r, *road_types_, uniq, before_ts, 1, true);
          Element v2 = MakeElement(r, *road_types_, uniq, ts, 2, true);
          v2.tags.push_back(Tag{"name", "Synthetic " + std::to_string(uniq)});
          history.Add(v1);
          history.Add(v2);
          break;
        }
      }
    }
    EmitChangesets(records, day, &cs_writer);
  }
  artifacts.history_xml = history.Finish();
  artifacts.changesets_xml = cs_writer.Finish();
  return artifacts;
}

}  // namespace rased
