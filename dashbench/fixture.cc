#include "fixture.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "io/env.h"
#include "synth/cube_synthesizer.h"
#include "util/str_util.h"

namespace dashbench {

using rased::Date;
using rased::DateRange;
using rased::Rased;
using rased::RasedOptions;
using rased::Result;
using rased::Status;

namespace fs = std::filesystem;

namespace {

constexpr char kManifest[] = "dashbench.manifest";

// Fixture data never depends on the run's --seed: the seed drives the
// request stream, and every run of a workload reads the same instance.
constexpr uint64_t kDataSeed = 42;

// What a verified reopen must reproduce.
std::string Fingerprint(const Rased& rased) {
  rased::IndexStorageStats stats = rased.index()->StorageStats();
  std::ostringstream out;
  out << "cubes=" << stats.cubes_per_level[0] << ","
      << stats.cubes_per_level[1] << "," << stats.cubes_per_level[2] << ","
      << stats.cubes_per_level[3] << "\nepoch=" << rased.index()->epoch()
      << "\nrecords="
      << (rased.warehouse() != nullptr ? rased.warehouse()->num_records() : 0)
      << "\ncoverage=" << rased.index()->coverage().ToString() << "\n";
  return out.str();
}

Result<std::string> OpenFingerprint(const std::string& dir) {
  RASED_ASSIGN_OR_RETURN(RasedOptions options,
                         InstanceOptions(dir, 0, rased::DeviceModel::None()));
  RASED_ASSIGN_OR_RETURN(std::unique_ptr<Rased> rased, Rased::Open(options));
  return Fingerprint(*rased);
}

Status Build(const FixtureSpec& spec, const std::string& dir) {
  RasedOptions options;
  options.dir = dir;
  options.schema = spec.schema;
  options.num_levels = 4;
  options.enable_warehouse = true;
  options.device = rased::DeviceModel::None();
  RASED_ASSIGN_OR_RETURN(std::unique_ptr<Rased> rased, Rased::Create(options));
  auto gen = MakeGenerator(spec, rased.get());
  rased::CubeSynthesizer synth(spec.synth, &rased->world(), spec.schema);
  for (Date d = spec.coverage.first; d <= spec.coverage.last; d = d.next()) {
    if (d < spec.records_from) {
      RASED_RETURN_IF_ERROR(rased->IngestDayCube(d, synth.DayCube(d)));
    } else {
      RASED_RETURN_IF_ERROR(
          rased->IngestDayRecords(d, gen->GenerateDayRecords(d)));
    }
  }
  return rased->Sync();
}

}  // namespace

std::string FixtureSpec::Key() const {
  return rased::StrFormat(
      "%s-%ux%ux%ux%u-%s-%s-r%s-rate%g-seed%llu", name.c_str(),
      schema.num_element_types, schema.num_countries, schema.num_road_types,
      schema.num_update_types, coverage.first.ToString().c_str(),
      coverage.last.ToString().c_str(), records_from.ToString().c_str(),
      synth.base_updates_per_day,
      static_cast<unsigned long long>(synth.seed));
}

FixtureSpec PaperYearFixture() {
  FixtureSpec spec;
  spec.name = "paper";
  spec.schema = rased::CubeSchema::PaperScale();
  spec.coverage = DateRange(Date::FromYmd(2020, 1, 1), Date::FromYmd(2020, 12, 31));
  spec.records_from = spec.coverage.first;
  spec.synth.seed = kDataSeed;
  // The `rased synth` default rate: ~600 updates a day in the covered year.
  spec.synth.base_updates_per_day = 500.0;
  spec.synth.period = DateRange(spec.coverage.first, Date::FromYmd(2021, 12, 31));
  return spec;
}

FixtureSpec BenchHistoryFixture() {
  FixtureSpec spec;
  spec.name = "bench";
  spec.schema = rased::CubeSchema{3, 32, 16, 4};
  spec.coverage = DateRange(Date::FromYmd(2006, 1, 1), Date::FromYmd(2021, 12, 31));
  spec.records_from = Date::FromYmd(2021, 10, 1);
  spec.synth.seed = kDataSeed;
  // The figure benches' rate (bench/common BenchEnv).
  spec.synth.base_updates_per_day = 40.0;
  spec.synth.period = DateRange(spec.coverage.first, Date::FromYmd(2022, 12, 31));
  return spec;
}

Result<std::string> EnsureFixture(const std::string& data_dir,
                                  const FixtureSpec& spec) {
  const std::string dir = rased::env::JoinPath(data_dir, spec.Key());
  const std::string manifest = rased::env::JoinPath(dir, kManifest);
  if (rased::env::FileExists(manifest)) {
    auto recorded = rased::env::ReadFile(manifest);
    auto actual = OpenFingerprint(dir);
    if (recorded.ok() && actual.ok() && recorded.value() == actual.value()) {
      return dir;
    }
    std::fprintf(stderr, "[dashbench] fixture %s is stale; rebuilding\n",
                 spec.Key().c_str());
  }
  RASED_RETURN_IF_ERROR(rased::env::RemoveAll(dir));
  std::fprintf(stderr, "[dashbench] building fixture %s (one-time)\n",
               spec.Key().c_str());
  RASED_RETURN_IF_ERROR(Build(spec, dir));
  RASED_ASSIGN_OR_RETURN(std::string fingerprint, OpenFingerprint(dir));
  RASED_RETURN_IF_ERROR(rased::env::WriteFileAtomic(manifest, fingerprint));
  return dir;
}

Result<std::string> LocateFixture(const std::string& data_dir,
                                  const FixtureSpec& spec) {
  const std::string dir = rased::env::JoinPath(data_dir, spec.Key());
  if (!rased::env::FileExists(rased::env::JoinPath(dir, kManifest))) {
    return Status::NotFound("no verified fixture at " + dir);
  }
  return dir;
}

Status CopyTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::create_directories(fs::path(to).parent_path(), ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) return Status::IOError("copy " + from + " -> " + to + ": " + ec.message());
  // Flush the copy now, so that the run's first Sync writes back only what
  // the run itself changed, not the whole instance.
  for (const auto& entry : fs::recursive_directory_iterator(to, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    int fd = ::open(entry.path().c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      return Status::IOError("fsync " + entry.path().string());
    }
    ::close(fd);
  }
  return Status::OK();
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

Result<RasedOptions> InstanceOptions(const std::string& dir,
                                     uint64_t cache_bytes,
                                     const rased::DeviceModel& device) {
  RASED_ASSIGN_OR_RETURN(RasedOptions options, Rased::LoadOptions(dir));
  if (cache_bytes > 0) options.cache.byte_budget = cache_bytes;
  options.device = device;
  return options;
}

std::unique_ptr<rased::UpdateGenerator> MakeGenerator(const FixtureSpec& spec,
                                                      Rased* rased) {
  auto gen = std::make_unique<rased::UpdateGenerator>(
      spec.synth, &rased->world(), rased->road_types());
  gen->activity().InitRoadNetworkSizes(rased->mutable_world());
  return gen;
}

}  // namespace dashbench
