#ifndef RASED_SYNTH_UPDATE_GENERATOR_H_
#define RASED_SYNTH_UPDATE_GENERATOR_H_

#include <string>
#include <vector>

#include "collect/update_record.h"
#include "geo/world_map.h"
#include "osm/road_types.h"
#include "synth/activity_model.h"
#include "synth/synth_options.h"

namespace rased {

/// One day's crawler input files, in the real OSM formats.
struct DayArtifacts {
  std::string osc_xml;         ///< the day's diff (osmChange)
  std::string changesets_xml;  ///< the day's changeset metadata
};

/// One month's monthly-crawler input.
struct MonthArtifacts {
  std::string history_xml;     ///< full-history fragment for the month
  std::string changesets_xml;  ///< all changesets of the month
};

/// Generates the synthetic editing history. Two mutually consistent paths:
///
///  * GenerateDayRecords — UpdateList tuples directly (the fast path used
///    to bulk load 16 years of cubes). Tuples carry the final four-way
///    UpdateType classification.
///  * GenerateDayArtifacts / GenerateMonthArtifacts — real OSC diff,
///    changeset, and full-history XML derived from the same per-day record
///    stream, exercising the crawlers end-to-end. A daily crawl of the
///    artifacts yields the same tuples with the provisional UpdateType;
///    a monthly crawl recovers the full classification.
///
/// Everything is deterministic in (options.seed, date).
class UpdateGenerator {
 public:
  /// The world map must have num_zones() matching the intended cube
  /// schema; `road_types` is shared with the crawlers so ids agree.
  UpdateGenerator(const SynthOptions& options, const WorldMap* world,
                  const RoadTypeTable* road_types);

  const ActivityModel& activity() const { return activity_; }

  /// UpdateList tuples for one day, grouped into synthetic changesets
  /// (records of one changeset are consecutive and share changeset_id).
  std::vector<UpdateRecord> GenerateDayRecords(Date day) const;

  /// Diff + changeset files for one day (derived from GenerateDayRecords).
  DayArtifacts GenerateDayArtifacts(Date day) const;

  /// Full-history + changeset files covering one month.
  MonthArtifacts GenerateMonthArtifacts(Date month_start) const;

 private:
  /// Stable changeset id for a (day, sequence) pair.
  static uint64_t ChangesetIdFor(Date day, uint32_t seq);

  SynthOptions options_;
  const WorldMap* world_;
  const RoadTypeTable* road_types_;
  ActivityModel activity_;
};

}  // namespace rased

#endif  // RASED_SYNTH_UPDATE_GENERATOR_H_
