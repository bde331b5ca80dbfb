#ifndef RASED_DASHBOARD_RENDER_H_
#define RASED_DASHBOARD_RENDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "geo/world_map.h"
#include "osm/road_types.h"
#include "query/analysis_query.h"
#include "util/result.h"

namespace rased {

/// Name resolution for rendering query results.
struct RenderContext {
  const WorldMap* world = nullptr;
  const RoadTypeTable* road_types = nullptr;

  std::string LabelFor(const ResultRow& row, const AnalysisQuery& query) const;
  std::string CountryName(int32_t id) const;
  std::string RoadTypeName(int32_t id) const;
};

/// RASED visualizes analysis-query answers as tables, charts, a choropleth
/// map, or a timelapse (Section IV-A). These renderers produce the
/// terminal/text versions; RenderJson feeds the web dashboard.

/// Generic result table sorted by count descending (the paper's tabular
/// format, sortable on any column — pass `sort_column`).
enum class TableSort { kCount = 0, kLabel = 1, kPercentage = 2 };
std::string RenderTable(const QueryResult& result, const AnalysisQuery& query,
                        const RenderContext& ctx,
                        TableSort sort = TableSort::kCount,
                        size_t max_rows = 50);

/// The paper's Figure 3 pivot: one row per country, columns for every
/// (element type x created/modified) combination plus an "All" total.
/// Requires group_country && group_element_type && group_update_type.
std::string RenderCountryElementPivot(const QueryResult& result,
                                      const RenderContext& ctx,
                                      size_t max_rows = 20);

/// Horizontal ASCII bar chart of the top `max_bars` groups (Figures 2/4).
std::string RenderBarChart(const QueryResult& result,
                           const AnalysisQuery& query,
                           const RenderContext& ctx, int width = 60,
                           size_t max_bars = 20);

/// Multi-series time chart for date-grouped results (Figure 5): one symbol
/// per series (country), days bucketed to fit `width` columns.
std::string RenderTimeSeries(const QueryResult& result,
                             const AnalysisQuery& query,
                             const RenderContext& ctx, int width = 80,
                             int height = 16);

/// ASCII world choropleth for country-grouped results: the synthetic world
/// grid shaded by each zone's value.
std::string RenderChoropleth(const QueryResult& result,
                             const RenderContext& ctx, int cols = 90,
                             int rows = 30);

/// Timelapse: one choropleth frame per month of a (date, country)-grouped
/// result — the terminal version of RASED's road-evolution video.
std::vector<std::string> RenderTimelapse(const QueryResult& result,
                                         const RenderContext& ctx,
                                         int cols = 90, int rows = 30);

/// JSON encoding of a result (rows + execution stats).
std::string RenderJson(const QueryResult& result, const AnalysisQuery& query,
                       const RenderContext& ctx);

/// Appends one CSV field, quoted RFC-4180-style when it holds a comma, a
/// quote or a line break.
void AppendCsvField(std::string* out, std::string_view field);

/// CSV export (header + one line per row; RFC-4180-style quoting). The
/// format map analysts feed into spreadsheets and notebooks.
std::string RenderCsv(const QueryResult& result, const AnalysisQuery& query,
                      const RenderContext& ctx);

/// A rendered query answer: the HTTP content type and the body.
struct RenderedResult {
  std::string content_type;
  std::string body;
};

/// The one format table behind /api/query, /api/sql and `rased query`:
/// renders `result` as json, csv, table, bar, timeseries, choropleth or
/// pivot. An empty `format` selects `default_format`; any other name is
/// InvalidArgument "unknown format '<name>'".
Result<RenderedResult> RenderFormat(std::string_view format,
                                    std::string_view default_format,
                                    const QueryResult& result,
                                    const AnalysisQuery& query,
                                    const RenderContext& ctx);

}  // namespace rased

#endif  // RASED_DASHBOARD_RENDER_H_
