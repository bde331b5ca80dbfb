// Concurrent query read path — dashboard worker-pool scaling.
//
// The dashboard's HTTP pool runs analysis queries concurrently against
// one Rased instance: the executor is stateless, the index catalog is
// behind a reader-writer lock, and every query charges its own IoStats.
// This bench measures what that buys over the old design (one global
// mutex serializing every endpoint) on a cache-warm workload:
//
//   * the *determinism* claim — per-query QueryStats from an N-way
//     concurrent run are bit-identical to the serial run (checked, not
//     just reported), and
//   * the *scaling* claim — with the global lock gone, T workers retire
//     the same workload in ~1/T of the serialized device-model time.
//
// Times are the deterministic device-model makespan (the repo's standard
// methodology, see io/pager.h): a worker's cost is the sum of its
// queries' simulated device micros, the pool's makespan is the slowest
// worker, and the single-global-lock baseline is the sum over all
// queries — exactly what the old DashboardService::rased_mu_ enforced.
// Wall-clock is reported alongside for reference but is not the metric:
// it depends on host core count, while the makespan does not.
//
// Usage: bench_concurrent_queries [--quick] [key=value ...]
//   --quick: 2-year index, fewer queries, 1/4/8 threads (CI smoke gate).

#include <atomic>
#include <thread>

#include "bench_common.h"
#include "io/env.h"
#include "util/clock.h"

using namespace rased;
using namespace rased::bench;

namespace {

struct PerQueryStats {
  IoStats io;
  uint64_t cubes_total = 0;
  uint64_t cubes_from_cache = 0;
  uint64_t cubes_from_disk = 0;
};

bool SameAccounting(const PerQueryStats& a, const PerQueryStats& b) {
  return a.io == b.io && a.cubes_total == b.cubes_total &&
         a.cubes_from_cache == b.cubes_from_cache &&
         a.cubes_from_disk == b.cubes_from_disk;
}

PerQueryStats Capture(const QueryStats& s) {
  return PerQueryStats{s.io, s.cubes_total, s.cubes_from_cache,
                       s.cubes_from_disk};
}

}  // namespace

int main(int argc, char** argv) {
  // Config wants key=value pairs; the mode flag is ours, not its.
  bool quick = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  BenchEnv env = BenchEnv::FromArgs(static_cast<int>(args.size()),
                                    args.data());
  if (quick) {
    // A 2-year index, rebuilt every run in its own subdirectory: builds
    // in seconds instead of paying for the 16-year one, and never
    // collides with the full-size cached index.
    UseFreshQuickDir(&env);
    env.period = DateRange(Date::FromYmd(2020, 1, 1),
                           Date::FromYmd(2021, 12, 31));
    env.synth.period = env.period;
  }

  auto index = OpenOrBuildIndex(env, /*num_levels=*/4);
  auto world = MakeWorld(env);

  // Static recency cache: warmed once, never admits or evicts at query
  // time, so cache hits — and therefore per-query I/O — are a pure
  // function of the query. That is what makes the determinism check
  // below meaningful under concurrency.
  CacheOptions cache_options;
  if (quick) {
    // The bench measures concurrent reads, so its serial pass must read
    // from disk. The query windows end within the newest of the index's
    // two years, so together they touch about its newest half; resident
    // entries are never smaller than their catalog blobs, so half the
    // catalog's bytes cannot keep that half resident.
    cache_options.byte_budget = index->StorageStats().encoded_bytes / 2;
  } else {
    cache_options.byte_budget = CacheOptions::BytesForCubes(
        static_cast<size_t>(env.config.GetInt("cache_slots", 128)),
        env.schema);
  }
  cache_options.policy = CachePolicy::kRasedRecency;
  CubeCache cache(cache_options);
  Status warm = cache.Warm(index.get());
  RASED_CHECK(warm.ok()) << warm.ToString();
  index->pager()->ResetStats();

  QueryExecutor executor(index.get(), &cache, world.get());

  const std::vector<int> thread_sweep =
      quick ? std::vector<int>{1, 4, 8} : std::vector<int>{1, 2, 4, 8, 16};
  const int total_queries =
      quick ? 64 : env.queries_per_point * 16;  // divisible by every T
  const int span_days = 60;

  // One fixed workload for every sweep point, generated up front.
  Rng rng(env.seed);
  std::vector<AnalysisQuery> queries;
  queries.reserve(static_cast<size_t>(total_queries));
  for (int i = 0; i < total_queries; ++i) {
    queries.push_back(RandomCellQuery(env, *world, rng, span_days));
  }

  // Serial reference pass: the accounting every concurrent run must
  // reproduce exactly, and the single-global-lock baseline cost.
  std::vector<PerQueryStats> reference(queries.size());
  int64_t serialized_micros = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = executor.Execute(queries[i]);
    RASED_CHECK(result.ok()) << result.status().ToString();
    reference[i] = Capture(result.value().stats);
    serialized_micros += result.value().stats.io.simulated_device_micros;
  }
  RASED_CHECK(serialized_micros > 0)
      << "workload is fully cache-resident; shrink the cache budget";

  PrintHeader(
      "Concurrent queries: dashboard worker-pool scaling",
      StrFormat("%d single-cell queries, %d-day windows, %.0f KiB "
                "warm cache, device model %lld us/page;",
                total_queries, span_days,
                static_cast<double>(cache_options.byte_budget) / 1024.0,
                static_cast<long long>(env.device.read_latency_us)) +
          " makespan = slowest worker's summed device micros");
  PrintRow({"threads", "makespan", "speedup", "queries/s", "wall"});

  double speedup_at_8 = 0;
  for (int threads : thread_sweep) {
    // Round-robin partition: query i belongs to worker i % T, so the
    // assignment (and each worker's cost) is deterministic.
    std::vector<std::vector<PerQueryStats>> got(
        static_cast<size_t>(threads));
    for (auto& g : got) g.resize(queries.size());
    std::vector<int64_t> worker_micros(static_cast<size_t>(threads), 0);
    std::atomic<int> failures{0};

    StopWatch watch;
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (size_t i = static_cast<size_t>(t); i < queries.size();
             i += static_cast<size_t>(threads)) {
          auto result = executor.Execute(queries[i]);
          if (!result.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          got[static_cast<size_t>(t)][i] = Capture(result.value().stats);
          worker_micros[static_cast<size_t>(t)] +=
              result.value().stats.io.simulated_device_micros;
        }
      });
    }
    for (std::thread& th : pool) th.join();
    double wall_ms = static_cast<double>(watch.ElapsedMicros()) / 1000.0;
    RASED_CHECK(failures.load() == 0) << failures.load() << " queries failed";

    // Determinism: every query's accounting matches the serial run.
    for (size_t i = 0; i < queries.size(); ++i) {
      const PerQueryStats& concurrent =
          got[i % static_cast<size_t>(threads)][i];
      RASED_CHECK(SameAccounting(concurrent, reference[i]))
          << "query " << i << " accounting diverged at " << threads
          << " threads";
    }

    int64_t makespan = 0;
    for (int64_t m : worker_micros) makespan = std::max(makespan, m);
    if (makespan <= 0) makespan = 1;
    double speedup = static_cast<double>(serialized_micros) /
                     static_cast<double>(makespan);
    double qps = 1e6 * static_cast<double>(total_queries) /
                 static_cast<double>(makespan);
    if (threads == 8) speedup_at_8 = speedup;

    PrintRow({std::to_string(threads),
              FmtMillis(static_cast<double>(makespan) / 1000.0),
              StrFormat("%.2fx", speedup), StrFormat("%.0f", qps),
              FmtMillis(wall_ms)});
    PrintJsonLine(
        "concurrent_queries",
        {{"threads", static_cast<double>(threads)},
         {"queries", static_cast<double>(total_queries)},
         {"device_makespan_ms", static_cast<double>(makespan) / 1000.0},
         {"serialized_ms", static_cast<double>(serialized_micros) / 1000.0},
         {"speedup", speedup},
         {"queries_per_sec", qps},
         {"wall_ms", wall_ms}});
  }

  // The acceptance bar for this refactor: 8 workers beat the old global
  // lock by at least 4x on the same workload.
  RASED_CHECK(speedup_at_8 >= 4.0)
      << "8-thread speedup " << speedup_at_8 << " < 4x over global lock";

  std::printf(
      "\nExpected shape: makespan falls ~1/T (round-robin keeps workers\n"
      "balanced); the 1-thread row equals the old global-lock dashboard,\n"
      "where every /api/query serialized behind one mutex.\n");
  return 0;
}
