#include "dashboard/render.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "dashboard/json_writer.h"
#include "util/str_util.h"

namespace rased {

std::string RenderContext::CountryName(int32_t id) const {
  if (id < 0) return "*";
  if (world == nullptr || static_cast<size_t>(id) >= world->num_zones()) {
    return StrFormat("zone-%d", id);
  }
  return world->zone(static_cast<ZoneId>(id)).name;
}

std::string RenderContext::RoadTypeName(int32_t id) const {
  if (id < 0) return "*";
  if (road_types == nullptr ||
      static_cast<size_t>(id) >= road_types->size()) {
    return StrFormat("road-%d", id);
  }
  return road_types->Name(static_cast<RoadTypeId>(id));
}

std::string RenderContext::LabelFor(const ResultRow& row,
                                    const AnalysisQuery& query) const {
  std::vector<std::string> parts;
  if (query.group_country) parts.push_back(CountryName(row.country));
  if (query.group_date && row.has_date) parts.push_back(row.date.ToString());
  if (query.group_element_type && row.element_type >= 0) {
    parts.push_back(std::string(
        ElementTypeName(static_cast<ElementType>(row.element_type))));
  }
  if (query.group_road_type) parts.push_back(RoadTypeName(row.road_type));
  if (query.group_update_type && row.update_type >= 0) {
    parts.push_back(std::string(
        UpdateTypeName(static_cast<UpdateType>(row.update_type))));
  }
  if (parts.empty()) parts.push_back("(all)");
  return Join(parts, " / ");
}

namespace {

std::vector<const ResultRow*> SortedRows(const QueryResult& result,
                                         const AnalysisQuery& query,
                                         const RenderContext& ctx,
                                         TableSort sort) {
  std::vector<const ResultRow*> rows;
  rows.reserve(result.rows.size());
  for (const ResultRow& r : result.rows) rows.push_back(&r);
  switch (sort) {
    case TableSort::kCount:
      std::stable_sort(rows.begin(), rows.end(),
                       [](const ResultRow* a, const ResultRow* b) {
                         return a->count > b->count;
                       });
      break;
    case TableSort::kPercentage:
      std::stable_sort(rows.begin(), rows.end(),
                       [](const ResultRow* a, const ResultRow* b) {
                         return a->percentage > b->percentage;
                       });
      break;
    case TableSort::kLabel:
      std::stable_sort(rows.begin(), rows.end(),
                       [&](const ResultRow* a, const ResultRow* b) {
                         return ctx.LabelFor(*a, query) <
                                ctx.LabelFor(*b, query);
                       });
      break;
  }
  return rows;
}

}  // namespace

std::string RenderTable(const QueryResult& result, const AnalysisQuery& query,
                        const RenderContext& ctx, TableSort sort,
                        size_t max_rows) {
  auto rows = SortedRows(result, query, ctx, sort);
  size_t label_width = 10;
  for (const ResultRow* r : rows) {
    label_width = std::max(label_width, ctx.LabelFor(*r, query).size());
  }
  std::string out;
  out += StrFormat("%-*s  %15s", static_cast<int>(label_width), "group",
                   "count");
  if (query.percentage) out += StrFormat("  %10s", "percent");
  out += "\n";
  out += std::string(label_width + 17 + (query.percentage ? 12 : 0), '-');
  out += "\n";
  size_t shown = 0;
  for (const ResultRow* r : rows) {
    if (shown++ >= max_rows) {
      out += StrFormat("... (%zu more rows)\n", rows.size() - max_rows);
      break;
    }
    out += StrFormat("%-*s  %15s", static_cast<int>(label_width),
                     ctx.LabelFor(*r, query).c_str(),
                     WithThousandsSep(r->count).c_str());
    if (query.percentage) out += StrFormat("  %9.4f%%", r->percentage);
    out += "\n";
  }
  return out;
}

std::string RenderCountryElementPivot(const QueryResult& result,
                                      const RenderContext& ctx,
                                      size_t max_rows) {
  // Columns: All | Ways Cr | Ways Mod | Relations Cr | Relations Mod |
  // Nodes Cr | Nodes Mod. "Modified" folds geometry+metadata (and deletes
  // count as modifications of the network state for this view's purpose —
  // matching the paper's New/Update daily classification).
  struct PivotRow {
    uint64_t all = 0;
    uint64_t cells[3][2] = {{0, 0}, {0, 0}, {0, 0}};  // [element][cr|mod]
  };
  std::map<int32_t, PivotRow> pivot;
  for (const ResultRow& r : result.rows) {
    if (r.country < 0 || r.element_type < 0 || r.update_type < 0) continue;
    PivotRow& p = pivot[r.country];
    int mod = r.update_type == static_cast<int32_t>(UpdateType::kNew) ? 0 : 1;
    p.cells[r.element_type][mod] += r.count;
    p.all += r.count;
  }
  std::vector<std::pair<int32_t, const PivotRow*>> ordered;
  for (const auto& [country, row] : pivot) ordered.emplace_back(country, &row);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return a.second->all > b.second->all;
            });

  std::string out;
  out += StrFormat("%-24s %14s %14s %14s %12s %12s %12s %12s\n", "country",
                   "All", "Ways Created", "Ways Modified", "Rels Cr",
                   "Rels Mod", "Nodes Cr", "Nodes Mod");
  out += std::string(24 + 15 * 3 + 13 * 4, '-') + "\n";
  size_t shown = 0;
  for (const auto& [country, row] : ordered) {
    if (shown++ >= max_rows) break;
    const int way = static_cast<int>(ElementType::kWay);
    const int rel = static_cast<int>(ElementType::kRelation);
    const int node = static_cast<int>(ElementType::kNode);
    out += StrFormat("%-24s %14s %14s %14s %12s %12s %12s %12s\n",
                     ctx.CountryName(country).c_str(),
                     WithThousandsSep(row->all).c_str(),
                     WithThousandsSep(row->cells[way][0]).c_str(),
                     WithThousandsSep(row->cells[way][1]).c_str(),
                     WithThousandsSep(row->cells[rel][0]).c_str(),
                     WithThousandsSep(row->cells[rel][1]).c_str(),
                     WithThousandsSep(row->cells[node][0]).c_str(),
                     WithThousandsSep(row->cells[node][1]).c_str());
  }
  return out;
}

std::string RenderBarChart(const QueryResult& result,
                           const AnalysisQuery& query,
                           const RenderContext& ctx, int width,
                           size_t max_bars) {
  auto rows = SortedRows(result, query, ctx, TableSort::kCount);
  if (rows.size() > max_bars) rows.resize(max_bars);
  uint64_t max_count = 1;
  size_t label_width = 8;
  for (const ResultRow* r : rows) {
    max_count = std::max(max_count, r->count);
    label_width = std::max(label_width, ctx.LabelFor(*r, query).size());
  }
  std::string out;
  for (const ResultRow* r : rows) {
    int len = static_cast<int>(
        std::llround(static_cast<double>(r->count) * width / max_count));
    out += StrFormat("%-*s |%s %s\n", static_cast<int>(label_width),
                     ctx.LabelFor(*r, query).c_str(),
                     std::string(static_cast<size_t>(len), '#').c_str(),
                     WithThousandsSep(r->count).c_str());
  }
  return out;
}

std::string RenderTimeSeries(const QueryResult& result,
                             const AnalysisQuery& query,
                             const RenderContext& ctx, int width,
                             int height) {
  if (!query.group_date) return "(time series requires grouping by date)\n";
  // Series split by country when grouped, otherwise a single series.
  std::map<int32_t, std::map<int32_t, double>> series;  // country -> day -> v
  int32_t min_day = INT32_MAX, max_day = INT32_MIN;
  double max_value = 0.0;
  for (const ResultRow& r : result.rows) {
    if (!r.has_date) continue;
    double v = query.percentage ? r.percentage
                                : static_cast<double>(r.count);
    series[r.country][r.date.days_since_epoch()] += v;
    min_day = std::min(min_day, r.date.days_since_epoch());
    max_day = std::max(max_day, r.date.days_since_epoch());
  }
  if (series.empty()) return "(no data)\n";

  int days = max_day - min_day + 1;
  int bucket = std::max(1, (days + width - 1) / width);
  int cols = (days + bucket - 1) / bucket;

  // Bucketize: average within buckets.
  std::map<int32_t, std::vector<double>> bucketed;
  for (const auto& [country, points] : series) {
    std::vector<double> sums(static_cast<size_t>(cols), 0.0);
    std::vector<int> counts(static_cast<size_t>(cols), 0);
    for (const auto& [day, v] : points) {
      int b = (day - min_day) / bucket;
      sums[b] += v;
      ++counts[b];
    }
    for (int b = 0; b < cols; ++b) {
      if (counts[b] > 0) sums[b] /= counts[b];
      max_value = std::max(max_value, sums[b]);
    }
    bucketed[country] = std::move(sums);
  }
  if (max_value <= 0.0) max_value = 1.0;

  static const char kSymbols[] = "*o+x#@%&";
  std::vector<std::string> grid(static_cast<size_t>(height),
                                std::string(static_cast<size_t>(cols), ' '));
  int series_idx = 0;
  std::string legend;
  for (const auto& [country, values] : bucketed) {
    char sym = kSymbols[series_idx % (sizeof(kSymbols) - 1)];
    legend += StrFormat("  %c = %s\n", sym, ctx.CountryName(country).c_str());
    for (int b = 0; b < cols; ++b) {
      int row = static_cast<int>(
          std::llround(values[b] / max_value * (height - 1)));
      grid[static_cast<size_t>(height - 1 - row)][static_cast<size_t>(b)] =
          sym;
    }
    ++series_idx;
  }

  std::string out;
  std::string unit = query.percentage ? "%" : "";
  out += StrFormat("max %.4g%s\n", max_value, unit.c_str());
  for (const std::string& line : grid) out += "|" + line + "\n";
  out += "+" + std::string(static_cast<size_t>(cols), '-') + "\n";
  out += StrFormat(" %s .. %s (%d-day buckets)\n",
                   Date::FromDays(min_day).ToString().c_str(),
                   Date::FromDays(max_day).ToString().c_str(), bucket);
  out += legend;
  return out;
}

namespace {

std::string ChoroplethFrame(const std::map<int32_t, double>& values,
                            const RenderContext& ctx, int cols, int rows,
                            double max_value) {
  static const char kShades[] = " .:-=+*#%@";
  const int num_shades = static_cast<int>(sizeof(kShades)) - 2;
  std::string out;
  for (int r = 0; r < rows; ++r) {
    double lat = 90.0 - (r + 0.5) * 180.0 / rows;
    for (int c = 0; c < cols; ++c) {
      double lon = -180.0 + (c + 0.5) * 360.0 / cols;
      ZoneId zone = ctx.world->CountryAt(LatLon{lat, lon});
      if (zone == kZoneUnknown) {
        out.push_back('~');  // ocean / unmapped
        continue;
      }
      auto it = values.find(zone);
      double v = it == values.end() ? 0.0 : it->second;
      int shade = max_value > 0
                      ? static_cast<int>(std::log1p(v) /
                                         std::log1p(max_value) * num_shades)
                      : 0;
      shade = std::clamp(shade, 0, num_shades);
      out.push_back(kShades[shade]);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace

std::string RenderChoropleth(const QueryResult& result,
                             const RenderContext& ctx, int cols, int rows) {
  std::map<int32_t, double> values;
  double max_value = 0.0;
  for (const ResultRow& r : result.rows) {
    if (r.country < 0) continue;
    values[r.country] += static_cast<double>(r.count);
    max_value = std::max(max_value, values[r.country]);
  }
  return ChoroplethFrame(values, ctx, cols, rows, max_value);
}

std::vector<std::string> RenderTimelapse(const QueryResult& result,
                                         const RenderContext& ctx, int cols,
                                         int rows) {
  // One frame per month; values accumulate within the month.
  std::map<int32_t, std::map<int32_t, double>> by_month;  // month-start->zone
  double max_value = 0.0;
  for (const ResultRow& r : result.rows) {
    if (!r.has_date || r.country < 0) continue;
    int32_t month = r.date.month_start().days_since_epoch();
    double& v = by_month[month][r.country];
    v += static_cast<double>(r.count);
    max_value = std::max(max_value, v);
  }
  std::vector<std::string> frames;
  for (const auto& [month, values] : by_month) {
    std::string frame =
        StrFormat("=== %s ===\n", Date::FromDays(month).ToString().c_str());
    frame += ChoroplethFrame(values, ctx, cols, rows, max_value);
    frames.push_back(std::move(frame));
  }
  return frames;
}

void AppendCsvField(std::string* out, std::string_view field) {
  bool needs_quoting = field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quoting) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string RenderCsv(const QueryResult& result, const AnalysisQuery& query,
                      const RenderContext& ctx) {
  std::string out;
  std::vector<std::string> header;
  if (query.group_country) header.push_back("country");
  if (query.group_date) header.push_back("date");
  if (query.group_element_type) header.push_back("element_type");
  if (query.group_road_type) header.push_back("road_type");
  if (query.group_update_type) header.push_back("update_type");
  header.push_back("count");
  if (query.percentage) header.push_back("percentage");
  for (size_t i = 0; i < header.size(); ++i) {
    if (i > 0) out.push_back(',');
    AppendCsvField(&out, header[i]);
  }
  out.push_back('\n');

  for (const ResultRow& r : result.rows) {
    std::vector<std::string> cells;
    if (query.group_country) cells.push_back(ctx.CountryName(r.country));
    if (query.group_date) {
      cells.push_back(r.has_date ? r.date.ToString() : "");
    }
    if (query.group_element_type) {
      cells.push_back(r.element_type >= 0
                          ? std::string(ElementTypeName(
                                static_cast<ElementType>(r.element_type)))
                          : "");
    }
    if (query.group_road_type) cells.push_back(ctx.RoadTypeName(r.road_type));
    if (query.group_update_type) {
      cells.push_back(r.update_type >= 0
                          ? std::string(UpdateTypeName(
                                static_cast<UpdateType>(r.update_type)))
                          : "");
    }
    cells.push_back(std::to_string(r.count));
    if (query.percentage) cells.push_back(StrFormat("%.6f", r.percentage));
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendCsvField(&out, cells[i]);
    }
    out.push_back('\n');
  }
  return out;
}

std::string RenderJson(const QueryResult& result, const AnalysisQuery& query,
                       const RenderContext& ctx) {
  JsonWriter w;
  w.BeginObject();
  w.Key("rows");
  w.BeginArray();
  for (const ResultRow& r : result.rows) {
    w.BeginObject();
    if (query.group_country) {
      w.KV("country", std::string_view(ctx.CountryName(r.country)));
    }
    if (query.group_date && r.has_date) {
      w.KV("date", std::string_view(r.date.ToString()));
    }
    if (query.group_element_type && r.element_type >= 0) {
      w.KV("element_type",
           ElementTypeName(static_cast<ElementType>(r.element_type)));
    }
    if (query.group_road_type) {
      w.KV("road_type", std::string_view(ctx.RoadTypeName(r.road_type)));
    }
    if (query.group_update_type && r.update_type >= 0) {
      w.KV("update_type",
           UpdateTypeName(static_cast<UpdateType>(r.update_type)));
    }
    w.KV("count", r.count);
    if (query.percentage) w.KV("percentage", r.percentage);
    w.EndObject();
  }
  w.EndArray();
  w.Key("stats");
  w.BeginObject();
  w.KV("cubes_total", result.stats.cubes_total);
  w.KV("cubes_from_cache", result.stats.cubes_from_cache);
  w.KV("cubes_from_disk", result.stats.cubes_from_disk);
  w.KV("page_reads", result.stats.io.page_reads);
  w.KV("cpu_micros", result.stats.cpu_micros);
  w.KV("total_micros", result.stats.total_micros());
  w.EndObject();
  w.EndObject();
  return std::move(w).Finish();
}

Result<RenderedResult> RenderFormat(std::string_view format,
                                    std::string_view default_format,
                                    const QueryResult& result,
                                    const AnalysisQuery& query,
                                    const RenderContext& ctx) {
  if (format.empty()) format = default_format;
  RenderedResult out{"text/plain; charset=utf-8", ""};
  if (format == "json") {
    out = {"application/json", RenderJson(result, query, ctx)};
  } else if (format == "csv") {
    out = {"text/csv; charset=utf-8", RenderCsv(result, query, ctx)};
  } else if (format == "table") {
    out.body = RenderTable(result, query, ctx);
  } else if (format == "bar") {
    out.body = RenderBarChart(result, query, ctx);
  } else if (format == "timeseries") {
    out.body = RenderTimeSeries(result, query, ctx);
  } else if (format == "choropleth") {
    out.body = RenderChoropleth(result, ctx);
  } else if (format == "pivot") {
    out.body = RenderCountryElementPivot(result, ctx);
  } else {
    return Status::InvalidArgument("unknown format '" + std::string(format) +
                                   "'");
  }
  return out;
}

}  // namespace rased
