// Seeded fixture instances: built once per checkout, cached on disk keyed
// by schema, coverage and data seed, verified on every reopen, and copied
// fresh for every run so that runs never see each other's writes.
#ifndef DASHBENCH_FIXTURE_H_
#define DASHBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/rased.h"
#include "synth/synth_options.h"
#include "synth/update_generator.h"
#include "util/result.h"

namespace dashbench {

struct FixtureSpec {
  std::string name;
  rased::CubeSchema schema;
  /// Days the fixture covers.
  rased::DateRange coverage;
  /// Days from `records_from` on are ingested as update records (which
  /// stocks the sample warehouse); earlier days as synthesized day cubes.
  rased::Date records_from;
  /// Generator settings. `synth.period` spans the coverage plus one more
  /// year, the days a run may ingest on top of the fixture.
  rased::SynthOptions synth;

  /// Cache key: schema, coverage, record split, rate and data seed.
  std::string Key() const;
};

/// Paper-scale cubes, one year (2020), warehouse stocked every day.
FixtureSpec PaperYearFixture();
/// The figure benches' 3x32x16x4 schema, 16 years (2006-2021), warehouse
/// stocked for the last quarter.
FixtureSpec BenchHistoryFixture();

/// Returns the directory of a verified fixture under `data_dir`, building
/// it when missing or stale (cube counts per level, catalog epoch or
/// warehouse size differ from what the build recorded).
rased::Result<std::string> EnsureFixture(const std::string& data_dir,
                                         const FixtureSpec& spec);

/// The directory of an already verified fixture (EnsureFixture ran in an
/// earlier process); NotFound otherwise. Opens nothing, so a measuring
/// process's memory high-water mark starts clean.
rased::Result<std::string> LocateFixture(const std::string& data_dir,
                                         const FixtureSpec& spec);

/// Replaces `to` with a copy of the directory tree `from`.
rased::Status CopyTree(const std::string& from, const std::string& to);
/// Total bytes of the regular files under `dir`.
uint64_t TreeBytes(const std::string& dir);

/// The instance's structural options (as created) with the run's cache
/// budget and device model applied.
rased::Result<rased::RasedOptions> InstanceOptions(
    const std::string& dir, uint64_t cache_bytes,
    const rased::DeviceModel& device);

/// The generator for days beyond a fixture's coverage, bound to the
/// instance's world and road-type table.
std::unique_ptr<rased::UpdateGenerator> MakeGenerator(const FixtureSpec& spec,
                                                      rased::Rased* rased);

}  // namespace dashbench

#endif  // DASHBENCH_FIXTURE_H_
