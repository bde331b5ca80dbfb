// Always-on profiler overhead — the "free to leave on" claim.
//
// The continuous profiler (src/obs/profiler.cc, DESIGN.md section 13)
// samples every registered thread's CPU time at 99 Hz from a SIGPROF
// handler. This bench proves the three properties that make it safe to
// run in production, on the same warm-cache query workload the other
// dashboard benches use:
//
//   * overhead  — the process CPU time of a fixed query workload with
//     the profiler armed is within 2% of the unprofiled cost. Measured
//     as many short adjacent off/on phase pairs and gated on the paired
//     totals (sum of on over sum of off): host frequency drift moves
//     slowly, so adjacent ~100ms phases see the same machine and the
//     drift cancels out of the ratio. CPU time, not wall clock, because
//     the profiler's cost IS CPU — handler + reaper — while wall clock
//     also charges scheduler noise from a busy host;
//   * fidelity  — query *results* are bit-identical profiled vs not: an
//     FNV-1a hash over every result row must match exactly, because a
//     sampling observer must never perturb the data path;
//   * delivery  — the handler/ring/reaper pipeline keeps up: the sample
//     drop rate across the profiled phases stays under 1%, and the
//     retained report actually contains folded stacks.
//
// Usage: bench_profiler [--quick] [key=value ...]
//   --quick: 2-year index, short phases (CI smoke gate; emits the
//   "profiler" JSON line behind BENCH_profiler.json).

#include <ctime>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "io/env.h"
#include "obs/profiler.h"
#include "util/clock.h"

using namespace rased;
using namespace rased::bench;

namespace {

/// FNV-1a over every field of every row: the cross-phase fidelity stamp.
uint64_t HashRows(uint64_t hash, const std::vector<ResultRow>& rows) {
  auto mix = [&hash](uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ULL;
  };
  for (const ResultRow& row : rows) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(row.element_type)));
    mix(static_cast<uint64_t>(
        static_cast<uint32_t>(row.date.days_since_epoch())));
    mix(row.has_date ? 1 : 0);
    mix(static_cast<uint64_t>(static_cast<uint32_t>(row.country)));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(row.road_type)));
    mix(static_cast<uint64_t>(static_cast<uint32_t>(row.update_type)));
    mix(row.count);
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(row.percentage));
    std::memcpy(&bits, &row.percentage, sizeof(bits));
    mix(bits);
  }
  return hash;
}

/// Process-wide CPU micros (all threads — so a profiled phase is charged
/// the reaper's work too, which is exactly the overhead under test).
int64_t ProcessCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

/// Runs the workload `loops` times; returns CPU + wall micros and the row
/// hash (identical every pass on a warm static cache, so one hash
/// describes the whole phase).
struct PhaseResult {
  int64_t cpu_micros = 0;
  int64_t wall_micros = 0;
  uint64_t row_hash = 1469598103934665603ULL;  // FNV-1a offset basis
};

PhaseResult RunPhase(QueryExecutor* executor,
                     const std::vector<AnalysisQuery>& queries, int loops) {
  PhaseResult out;
  const int64_t cpu_start = ProcessCpuMicros();
  StopWatch watch;
  for (int loop = 0; loop < loops; ++loop) {
    uint64_t hash = 1469598103934665603ULL;
    for (const AnalysisQuery& query : queries) {
      auto result = executor->Execute(query);
      RASED_CHECK(result.ok()) << result.status().ToString();
      hash = HashRows(hash, result.value().rows);
    }
    if (loop == 0) {
      out.row_hash = hash;
    } else {
      RASED_CHECK(hash == out.row_hash) << "rows diverged across loops";
    }
  }
  out.wall_micros = watch.ElapsedMicros();
  out.cpu_micros = ProcessCpuMicros() - cpu_start;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
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
    UseFreshQuickDir(&env);
    env.period = DateRange(Date::FromYmd(2020, 1, 1),
                           Date::FromYmd(2021, 12, 31));
    env.synth.period = env.period;
  }

  auto index = OpenOrBuildIndex(env, /*num_levels=*/4);
  auto world = MakeWorld(env);

  // Warm static cache, as in bench_concurrent_queries: query cost is a
  // pure function of the query, which is what makes the row hash and the
  // makespan comparable across phases.
  CacheOptions cache_options;
  const size_t cache_cubes =
      static_cast<size_t>(env.config.GetInt("cache_slots", 128));
  cache_options.byte_budget =
      CacheOptions::BytesForCubes(cache_cubes, env.schema);
  cache_options.policy = CachePolicy::kRasedRecency;
  CubeCache cache(cache_options);
  Status warm = cache.Warm(index.get());
  RASED_CHECK(warm.ok()) << warm.ToString();

  QueryExecutor executor(index.get(), &cache, world.get());

  const int num_queries = quick ? 48 : 128;
  const int span_days = 60;
  const int reps = quick ? 32 : 16;
  // Pairs dropped from EACH tail of the per-rep delta distribution
  // before summing: a host frequency step landing inside one phase of a
  // pair produces an outlier delta that carries no profiler signal.
  // Trimming both tails equally keeps the estimator unbiased.
  const int trim = quick ? 3 : 2;
  Rng rng(env.seed);
  std::vector<AnalysisQuery> queries;
  queries.reserve(static_cast<size_t>(num_queries));
  for (int i = 0; i < num_queries; ++i) {
    queries.push_back(RandomCellQuery(env, *world, rng, span_days));
  }

  // Calibrate loops so one phase is short enough (~100ms quick) that an
  // adjacent off/on pair sees the same machine (frequency drift moves
  // slowly), while many pairs still land hundreds of 99 Hz samples in
  // total and average the per-phase noise out of the paired ratio.
  PhaseResult calibration = RunPhase(&executor, queries, 1);
  const int64_t target_micros = quick ? 100 * 1000 : 300 * 1000;
  const int loops = static_cast<int>(std::max<int64_t>(
      1, target_micros / std::max<int64_t>(1, calibration.wall_micros)));

  ProfilerOptions profiler_options;  // 99 Hz default, no registry
  const uint64_t samples_before = Profiler::Global()->samples_total();
  const uint64_t dropped_before = Profiler::Global()->dropped_total();

  PrintHeader(
      "Continuous profiler: overhead, fidelity, delivery",
      StrFormat("%d warm-cache queries x %d loops/phase, %d interleaved "
                "rep pairs, %d Hz CPU-time sampling",
                num_queries, loops, reps, profiler_options.sample_hz));
  PrintRow({"rep", "off cpu", "on cpu", "delta", "on wall"});

  std::vector<PhaseResult> offs;
  std::vector<PhaseResult> ons;
  offs.reserve(static_cast<size_t>(reps));
  ons.reserve(static_cast<size_t>(reps));
  uint64_t folded_stacks = 0;
  for (int rep = 0; rep < reps; ++rep) {
    // Interleaved A/B so thermal or host drift degrades both phases.
    PhaseResult off = RunPhase(&executor, queries, loops);
    RASED_CHECK(off.row_hash == calibration.row_hash)
        << "unprofiled rows diverged from calibration";

    Status started = Profiler::Global()->Start(profiler_options);
    RASED_CHECK(started.ok()) << started.ToString();
    PhaseResult on;
    {
      ProfilerThreadScope scope("bench-profiler");
      on = RunPhase(&executor, queries, loops);
      if (rep == reps - 1) {
        // Delivery check while still registered and running: the merged
        // in-progress + retained windows must hold real stacks.
        auto report = Profiler::Global()->RetainedReport(
            static_cast<int64_t>(reps) * 2 * target_micros);
        RASED_CHECK(report.ok()) << report.status().ToString();
        folded_stacks = report.value().folded.size();
      }
    }
    Profiler::Global()->Stop();
    RASED_CHECK(on.row_hash == off.row_hash)
        << "profiled rows diverged from unprofiled rows at rep " << rep;

    offs.push_back(off);
    ons.push_back(on);
    PrintRow({std::to_string(rep),
              FmtMillis(static_cast<double>(off.cpu_micros) / 1000.0),
              FmtMillis(static_cast<double>(on.cpu_micros) / 1000.0),
              StrFormat("%+.1f%%",
                        100.0 *
                            (static_cast<double>(on.cpu_micros) /
                                 static_cast<double>(off.cpu_micros) -
                             1.0)),
              FmtMillis(static_cast<double>(on.wall_micros) / 1000.0)});
  }

  const uint64_t samples =
      Profiler::Global()->samples_total() - samples_before;
  const uint64_t dropped =
      Profiler::Global()->dropped_total() - dropped_before;
  // Paired-totals ratio over the trimmed pairs: every on-phase ran
  // adjacent to its off-phase, so slow-machine epochs inflate numerator
  // and denominator together, and dropping the `trim` most extreme
  // delta pairs from each tail removes frequency-step outliers.
  std::vector<size_t> order(offs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return static_cast<double>(ons[a].cpu_micros) * offs[b].cpu_micros <
           static_cast<double>(ons[b].cpu_micros) * offs[a].cpu_micros;
  });
  int64_t total_off = 0;
  int64_t total_on = 0;
  int64_t total_off_wall = 0;
  int64_t total_on_wall = 0;
  for (size_t i = static_cast<size_t>(trim); i < order.size() - trim; ++i) {
    total_off += offs[order[i]].cpu_micros;
    total_on += ons[order[i]].cpu_micros;
    total_off_wall += offs[order[i]].wall_micros;
    total_on_wall += ons[order[i]].wall_micros;
  }
  const double overhead = static_cast<double>(total_on) /
                              static_cast<double>(std::max<int64_t>(
                                  1, total_off)) -
                          1.0;
  const double drop_rate =
      samples + dropped == 0
          ? 0.0
          : static_cast<double>(dropped) /
                static_cast<double>(samples + dropped);

  PrintJsonLine(
      "profiler",
      {{"queries", static_cast<double>(num_queries)},
       {"loops", static_cast<double>(loops)},
       {"reps", static_cast<double>(reps)},
       {"pairs_kept", static_cast<double>(reps - 2 * trim)},
       {"sample_hz", static_cast<double>(profiler_options.sample_hz)},
       {"off_cpu_ms", static_cast<double>(total_off) / 1000.0},
       {"on_cpu_ms", static_cast<double>(total_on) / 1000.0},
       {"off_wall_ms", static_cast<double>(total_off_wall) / 1000.0},
       {"on_wall_ms", static_cast<double>(total_on_wall) / 1000.0},
       {"overhead_pct", 100.0 * overhead},
       {"samples", static_cast<double>(samples)},
       {"dropped", static_cast<double>(dropped)},
       {"drop_rate_pct", 100.0 * drop_rate},
       {"folded_stacks", static_cast<double>(folded_stacks)}});

  // The acceptance gates for the always-on claim.
  RASED_CHECK(overhead <= 0.02)
      << "profiler CPU overhead " << 100.0 * overhead << "% exceeds 2%";
  RASED_CHECK(samples > 0) << "no samples delivered across profiled phases";
  RASED_CHECK(drop_rate < 0.01)
      << "drop rate " << 100.0 * drop_rate << "% exceeds 1%";
  RASED_CHECK(folded_stacks > 0) << "retained report held no stacks";

  std::printf(
      "\nExpected shape: on/off CPU deltas hover around 0%% (99 Hz costs\n"
      "~microseconds per second of CPU); rows hash identically in every\n"
      "phase, so the profiler observes queries without perturbing them.\n");
  return 0;
}
