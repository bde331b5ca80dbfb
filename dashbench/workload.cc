#include "workload.h"

#include <algorithm>
#include <cctype>

#include "dashboard/render.h"
#include "helpers.h"
#include "osm/element.h"

namespace dashbench {

using rased::AnalysisQuery;
using rased::Date;
using rased::DateRange;

namespace {

// The request mix below is assumed, not measured from dashboard traffic
// (README.md, "Assumptions"):
// - one /api/sample box query per four-panel refresh, so a fifth of reads;
constexpr double kSampleShare = 0.2;
// - sample boxes of 10 x 20 degrees placed uniformly over [-50, 50] x
//   [-170, 150] (n is the service's default of 100);
constexpr double kBoxLatDeg = 10, kBoxLonDeg = 20;
// - recent anchors Zipf-skewed with exponent 1 over the newest year;
constexpr double kZipfTheta = 1.0;
// - on history-bench, half of the analysis reads are single-cell probes.
constexpr double kProbeShare = 0.5;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  WorkloadSpec recent;
  recent.name = "recent-paper";
  recent.fixture = PaperYearFixture();
  // A third of peak_qps, not a half: at 140 req/s client-side queueing
  // behind the 90-day series panels moved query_p50_ms by a third between
  // runs on a shared host.
  recent.rate = 100;
  // The budget is charged in encoded bytes while hits hold dense cubes, so
  // at paper scale any budget above the index's size keeps it resident and
  // every ingested day adds 4.4 MB of memory. One index's worth keeps the
  // whole fixture resident and memory bounded while days are added.
  recent.cache_share = 1.0;
  recent.ingest_days = 100;
  specs.push_back(recent);

  WorkloadSpec history;
  history.name = "history-bench";
  history.fixture = BenchHistoryFixture();
  history.rate = 1000;
  history.history_anchors = true;
  history.probes = true;
  // The recency preload then holds roughly the newest of the 16 years.
  history.cache_share = 1.0 / 16;
  history.device = rased::DeviceModel{2000, 2000, 0.0};
  history.ingest_days = 200;
  specs.push_back(history);

  WorkloadSpec live;
  live.name = "ingest-live";
  live.fixture = PaperYearFixture();
  live.rate = 100;
  live.reads_under_ingest = true;
  live.cache_share = 1.0;
  // Six month-end rebuilds.
  live.ingest_days = 200;
  specs.push_back(live);
  return specs;
}

// Country names that survive the dashboard's comma-separated parameters.
std::vector<uint32_t> UrlSafeCountries(const rased::WorldMap& world) {
  std::vector<uint32_t> ids;
  for (rased::ZoneId id : world.country_ids()) {
    const std::string& name = world.zone(id).name;
    bool ok = !name.empty();
    for (char c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != ' ') ok = false;
    }
    if (ok) ids.push_back(id);
  }
  return ids;
}

std::string UrlEncode(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == ' ') {
      out += "%20";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string Window(const DateRange& range) {
  return "from=" + range.first.ToString() + "&to=" + range.last.ToString();
}

// Section VIII spans for single-cell probes.
constexpr int kProbeSpans[] = {1, 7, 30, 90, 365, 730, 1826};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  for (const WorkloadSpec& spec : specs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<Template> MakeTemplates(const WorkloadSpec& spec,
                                    const rased::WorldMap& world,
                                    uint64_t seed, size_t n) {
  SplitMix rng(seed);
  // Stratified draws for everything that sets a request's cost (its kind,
  // anchor and span), so that every stretch of the stream carries nearly
  // the same mix whatever the seed.
  constexpr int kBlock = 64;
  StratifiedUniform sample_draw(&rng, kBlock), probe_draw(&rng, kBlock),
      anchor_draw(&rng, kBlock), probe_anchor_draw(&rng, kBlock),
      span_draw(&rng, kBlock);
  const std::vector<uint32_t> countries = UrlSafeCountries(world);
  const DateRange& coverage = spec.fixture.coverage;
  // Most viewers look at "now": recent anchors are Zipf-skewed toward the
  // newest day over the last year.
  ZipfSampler zipf(365, kZipfTheta);
  // History anchors: uniform over 2006-2019, leaving room for the longest
  // window inside coverage.
  const Date history_last = Date::FromYmd(2019, 12, 31);
  auto history_offset = [&](int span, StratifiedUniform* draw) {
    Date earliest = coverage.first.AddDays(span - 1);
    int choices = history_last - earliest + 1;
    Date anchor = earliest.AddDays(static_cast<int>(draw->Next() * choices));
    return coverage.last - anchor;
  };

  std::vector<Template> out;
  out.reserve(n);
  int refresh_offset = 0;
  int panel = 0;
  while (out.size() < n) {
    Template t;
    if (sample_draw.Next() < kSampleShare) {
      t.panel = Panel::kSample;
      double lat = -50 + rng.NextDouble() * 100;
      double lon = -170 + rng.NextDouble() * 320;
      t.box = rased::BoundingBox{lat, lon, lat + kBoxLatDeg, lon + kBoxLonDeg};
      out.push_back(t);
      continue;
    }
    if (spec.probes && probe_draw.Next() < kProbeShare) {
      t.panel = Panel::kProbe;
      t.span_days = kProbeSpans[static_cast<size_t>(
          span_draw.Next() * static_cast<double>(std::size(kProbeSpans)))];
      t.anchor_offset = history_offset(t.span_days, &probe_anchor_draw);
      t.country = countries[rng.Uniform(countries.size())];
      t.element_type = static_cast<uint32_t>(rng.Uniform(3));
      // Road type 0 is "(none)", which the dashboard cannot name back.
      t.road_type = 1 + static_cast<uint32_t>(
                            rng.Uniform(spec.fixture.schema.num_road_types - 1));
      t.update_type = static_cast<uint32_t>(rng.Uniform(4));
      out.push_back(t);
      continue;
    }
    // A dashboard refresh: the four panel shapes share one anchor.
    if (panel == 0) {
      refresh_offset = spec.history_anchors
                           ? history_offset(90, &anchor_draw)
                           : static_cast<int>(zipf.Sample(anchor_draw.Next()));
    }
    t.panel = static_cast<Panel>(panel);
    t.anchor_offset = refresh_offset;
    if (t.panel == Panel::kDetail) {
      t.country = countries[rng.Uniform(countries.size())];
    }
    panel = (panel + 1) % 4;
    out.push_back(t);
  }
  return out;
}

Request Materialize(const Template& t, Date base, const rased::WorldMap& world,
                    const rased::RoadTypeTable& road_types) {
  Request r;
  r.panel = t.panel;
  if (t.panel == Panel::kSample) {
    r.box = t.box;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "/api/sample?min_lat=%.4f&min_lon=%.4f&max_lat=%.4f&"
                  "max_lon=%.4f&n=100",
                  t.box.min_lat, t.box.min_lon, t.box.max_lat, t.box.max_lon);
    r.target = buf;
    return r;
  }
  AnalysisQuery& q = r.query;
  Date anchor = base.AddDays(-t.anchor_offset);
  std::string params;
  switch (t.panel) {
    case Panel::kTimeseries:
      q.range = DateRange(anchor.AddDays(-89), anchor);
      q.group_date = true;
      params = "&group=date";
      break;
    case Panel::kChoropleth:
      q.range = DateRange(anchor.AddDays(-29), anchor);
      q.group_country = true;
      params = "&group=country";
      break;
    case Panel::kHistogram:
      q.range = DateRange(anchor.AddDays(-29), anchor);
      q.group_road_type = true;
      q.group_update_type = true;
      params = "&group=road_type,update_type";
      break;
    case Panel::kDetail:
      q.range = DateRange(anchor.AddDays(-6), anchor);
      q.countries = {static_cast<rased::ZoneId>(t.country)};
      q.group_date = true;
      q.group_update_type = true;
      params = "&countries=" + UrlEncode(world.zone(t.country).name) +
               "&group=date,update_type";
      break;
    case Panel::kProbe: {
      q.range = DateRange(anchor.AddDays(-(t.span_days - 1)), anchor);
      q.countries = {static_cast<rased::ZoneId>(t.country)};
      q.element_types = {static_cast<rased::ElementType>(t.element_type)};
      q.road_types = {static_cast<rased::RoadTypeId>(t.road_type)};
      q.update_types = {static_cast<rased::UpdateType>(t.update_type)};
      params = "&countries=" + UrlEncode(world.zone(t.country).name) +
               "&element_types=" +
               std::string(rased::ElementTypeName(q.element_types[0])) +
               "&road_types=" +
               UrlEncode(road_types.Name(q.road_types[0])) +
               "&update_types=" +
               std::string(rased::UpdateTypeName(q.update_types[0]));
      break;
    }
    case Panel::kSample:
      break;
  }
  r.target = "/api/query?" + Window(q.range) + params;
  return r;
}

}  // namespace dashbench
