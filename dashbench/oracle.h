// The row oracle: an independent naive fold over the index's daily cubes
// (one serial ReadCube per day, ForEachCell over every non-zero cell),
// kept as per-day sparse cell lists so any window can be answered without
// touching the planner, the cache, the batched reader or the kernels.
#ifndef DASHBENCH_ORACLE_H_
#define DASHBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/rased.h"
#include "dashboard/render.h"

namespace dashbench {

class Oracle {
 public:
  /// Reads every daily cube of `days` from `rased`'s index, one at a time.
  static rased::Result<Oracle> Load(const rased::Rased& rased,
                                    const rased::DateRange& days);

  /// The expected `rows` array of an /api/query JSON answer, as text.
  std::string RowsJson(const rased::AnalysisQuery& query) const;

  /// Updates over `range` (clipped to the loaded days) in the default
  /// country partition: what a full-coverage total query must answer.
  uint64_t Total(const rased::DateRange& range) const;

 private:
  struct Cell {
    uint32_t coords;  // packed (element, country, road, update)
    uint32_t count;
  };

  rased::CubeSchema schema_;
  rased::DateRange days_;
  std::vector<std::vector<Cell>> cells_;  // one list per day of days_
  std::vector<bool> in_partition_;        // zones of the default partition
  rased::RenderContext ctx_;
};

/// The `rows` array of an /api/query JSON body, or empty when the body is
/// not shaped {"rows":[...],"stats":{...}}.
std::string_view RowsOf(std::string_view body);

/// Checks an /api/sample JSON body: every sample's lat/lon lies inside
/// `box`. Returns false on a malformed body; `*count` gets the sample
/// count.
bool SamplesInside(std::string_view body, const rased::BoundingBox& box,
                   size_t* count);

}  // namespace dashbench

#endif  // DASHBENCH_ORACLE_H_
