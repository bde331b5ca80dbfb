// The three workloads: which fixture they read, their open-loop rates and
// request mixes, and the seeded request stream each one sends.
#ifndef DASHBENCH_WORKLOAD_H_
#define DASHBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/rased.h"
#include "fixture.h"

namespace dashbench {

enum class Panel {
  kTimeseries,  // Fig. 2: updates per day, 90 days
  kChoropleth,  // Fig. 3: per-country totals, 30 days
  kHistogram,   // Fig. 4: road type x update type, 30 days
  kDetail,      // Fig. 5: one country's daily mix, 7 days
  kProbe,       // Section VIII: one cell, 1 day to 5 years
  kSample,      // Section IV-B: sample updates in a box
};

/// One request of the stream, relative to a base day (the newest day the
/// request may read), so the same template can follow live ingest.
struct Template {
  Panel panel = Panel::kTimeseries;
  int anchor_offset = 0;  // window ends this many days before the base day
  int span_days = 1;      // probes only
  uint32_t country = 0;   // detail and probe
  uint32_t element_type = 0, road_type = 0, update_type = 0;  // probe
  rased::BoundingBox box;  // sample
};

/// A template resolved against a base day: the URL the client sends and
/// the query it stands for (which the oracle answers independently).
struct Request {
  std::string target;
  Panel panel = Panel::kTimeseries;
  rased::AnalysisQuery query;
  rased::BoundingBox box;
  bool is_sample() const { return panel == Panel::kSample; }
};

struct WorkloadSpec {
  std::string name;
  FixtureSpec fixture;
  /// Open-loop arrival rate of reads, requests per second. Its /api/query
  /// share is 30-50% of the workload's measured peak_qps on a 4-core host.
  double rate = 0;
  /// Anchors uniform over 2006-2019 (else Zipf toward the newest day).
  bool history_anchors = false;
  /// Half of the analysis reads are Section VIII single-cell probes.
  bool probes = false;
  /// Read latencies are reported from the phase that ingests (else from
  /// the read-only phase before it).
  bool reads_under_ingest = false;
  /// Cache byte budget as a share of the fixture's index file bytes; 0
  /// keeps the default 2 GiB budget.
  double cache_share = 0;
  rased::DeviceModel device = rased::DeviceModel::None();
  /// Days the writer applies during the ingest phase; at least 100, so
  /// that freshness_p90_ms has ten samples beyond it.
  int ingest_days = 0;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The seeded request stream: `n` templates, deterministic in `seed`.
std::vector<Template> MakeTemplates(const WorkloadSpec& spec,
                                    const rased::WorldMap& world,
                                    uint64_t seed, size_t n);

/// Resolves `t` against `base` (the newest readable day).
Request Materialize(const Template& t, rased::Date base,
                    const rased::WorldMap& world,
                    const rased::RoadTypeTable& road_types);

}  // namespace dashbench

#endif  // DASHBENCH_WORKLOAD_H_
