// Dashboard server: RASED's web face (the equivalent of
// https://rased.cs.umn.edu for the synthetic planet).
//
// Builds a populated RASED instance and serves the HTML dashboard and the
// JSON API on localhost:
//
//   $ ./dashboard_server port=8080 serve_seconds=3600
//   then open http://127.0.0.1:8080/
//
// Defaults: ephemeral port, a short demo window so `make examples`-style
// batch runs terminate on their own. Pass serve_seconds=0 to run forever.

#include <cstdio>
#include <thread>

#include "core/rased.h"
#include "dashboard/dashboard_service.h"
#include "io/env.h"
#include "synth/update_generator.h"
#include "util/config.h"

using namespace rased;

int main(int argc, char** argv) {
  Config config;
  if (!config.ParseArgs(argc, argv).ok()) {
    std::fprintf(stderr, "usage: dashboard_server [port=N] "
                         "[serve_seconds=N] [base_rate=N]\n");
    return 1;
  }
  int port = static_cast<int>(config.GetInt("port", 0));
  int64_t serve_seconds = config.GetInt("serve_seconds", 15);

  TempDir workspace("rased-dashboard");
  RasedOptions options;
  options.dir = workspace.path();
  options.schema = CubeSchema::BenchScale();
  options.cache.byte_budget =
      CacheOptions::BytesForCubes(64, options.schema);
  auto rased = Rased::Create(options);
  if (!rased.ok()) {
    std::fprintf(stderr, "%s\n", rased.status().ToString().c_str());
    return 1;
  }

  SynthOptions synth;
  synth.base_updates_per_day = config.GetDouble("base_rate", 150.0);
  synth.period = DateRange(Date::FromYmd(2020, 1, 1),
                           Date::FromYmd(2021, 12, 31));
  UpdateGenerator gen(synth, &rased.value()->world(),
                      rased.value()->road_types());
  gen.activity().InitRoadNetworkSizes(rased.value()->mutable_world());
  std::printf("ingesting two years of synthetic history...\n");
  for (Date d = synth.period.first; d <= synth.period.last; d = d.next()) {
    Status s = rased.value()->IngestDayRecords(d, gen.GenerateDayRecords(d));
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!rased.value()->WarmCache().ok()) return 1;

  DashboardService service(rased.value().get());
  Status s = service.Start(port);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nRASED dashboard: http://127.0.0.1:%d/\n", service.port());
  std::printf("  try: /api/query?from=2021-01-01&to=2021-12-31&group=country\n");
  std::printf("       /api/query?group=country&format=table\n");
  std::printf("       /api/stats  /api/zones\n");
  if (serve_seconds > 0) {
    std::printf("serving for %lld s (serve_seconds=0 to run forever)...\n",
                static_cast<long long>(serve_seconds));
  } else {
    std::printf("serving until killed...\n");
  }
  // A script reading a redirected stdout learns the port while the server
  // is still running.
  std::fflush(stdout);
  if (serve_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::seconds(serve_seconds));
  } else {
    for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
  }
  service.Stop();
  return 0;
}
