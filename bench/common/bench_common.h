#ifndef RASED_BENCH_COMMON_BENCH_COMMON_H_
#define RASED_BENCH_COMMON_BENCH_COMMON_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/cube_cache.h"
#include "core/rased.h"
#include "dbms/baseline_dbms.h"
#include "geo/world_map.h"
#include "index/temporal_index.h"
#include "query/analysis_query.h"
#include "query/query_executor.h"
#include "synth/cube_synthesizer.h"
#include "synth/synth_options.h"
#include "util/config.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/str_util.h"

namespace rased {
namespace bench {

/// Shared knobs for every figure harness. Values come from `key=value`
/// command-line arguments or RASED_* environment variables (util/Config).
struct BenchEnv {
  Config config;

  /// Workspace holding the (expensive, therefore cached-on-disk) bench
  /// indexes. Default: ./rased_bench_data.
  std::string data_dir;

  /// The 16-year evaluation window of Section VIII.
  DateRange period{Date::FromYmd(2006, 1, 1), Date::FromYmd(2021, 12, 31)};

  /// Scaled cube schema used by the multi-year benches. Experiments vary
  /// the number of cubes touched, never the cube width, so a narrow cube
  /// keeps 16-year builds laptop-sized; see DESIGN.md §5 and the
  /// paper-scale projection in bench_table_index_size.
  CubeSchema schema{3, 32, 16, 4};

  /// Device cost model: 2 ms per cube fetch (see io/pager.h).
  DeviceModel device{2000, 2000, 0.0};

  SynthOptions synth;

  uint64_t seed = 42;
  int queries_per_point = 20;

  static BenchEnv FromArgs(int argc, char** argv);
};

/// Points `env` at an emptied "quick" subdirectory of its bench_dir. A
/// quick-mode smoke gate then always builds its index with the code under
/// test, never reopening one that an earlier build wrote.
void UseFreshQuickDir(BenchEnv* env);

/// Opens (building and persisting on first use) the 16-year bench index
/// with the given number of hierarchy levels. The build streams
/// CubeSynthesizer day cubes through the normal AppendDay maintenance
/// path, so rollup cubes are produced exactly as in production.
std::unique_ptr<TemporalIndex> OpenOrBuildIndex(const BenchEnv& env,
                                                int num_levels);

/// Opens (building on first use) the baseline DBMS heap loaded with the
/// record-path synthetic stream for the same period.
std::unique_ptr<BaselineDbms> OpenOrBuildDbms(const BenchEnv& env,
                                              uint64_t* num_records);

/// The world map matching env.schema (also carries road-network sizes).
std::unique_ptr<WorldMap> MakeWorld(const BenchEnv& env);

/// One random "single cube cell" query as used throughout Section VIII:
/// one value per dimension, a window of `span_days` ending uniformly in
/// the last year of coverage.
AnalysisQuery RandomCellQuery(const BenchEnv& env, const WorldMap& world,
                              Rng& rng, int span_days);

/// Runs `n` queries and returns mean response time in milliseconds under
/// the device model (cpu + simulated device), plus mean I/O count.
struct QueryLoadResult {
  double mean_millis = 0;
  double mean_page_reads = 0;
  double mean_cubes = 0;
  double mean_cache_hits = 0;
};
QueryLoadResult RunQueryLoad(QueryExecutor* executor, const BenchEnv& env,
                             const WorldMap& world, Rng& rng, int n,
                             int span_days);

/// Series-table printing helpers: every figure bench emits one header and
/// aligned rows so EXPERIMENTS.md can quote the output verbatim.
void PrintHeader(const std::string& title, const std::string& note);
void PrintRow(const std::vector<std::string>& cells);

/// Machine-readable companion to the table: one JSON object per call, on
/// its own stdout line, shaped {"bench": <name>, <field>: <number>, ...}.
/// Scrapers pick series out of bench output by matching the "bench" tag,
/// so every sweep point should emit exactly one line.
void PrintJsonLine(const std::string& bench,
                   const std::vector<std::pair<std::string, double>>& fields);

std::string FmtMillis(double ms);
std::string FmtCount(double v);

}  // namespace bench
}  // namespace rased

#endif  // RASED_BENCH_COMMON_BENCH_COMMON_H_
