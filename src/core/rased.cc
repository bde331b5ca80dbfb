#include "core/rased.h"

#include <utility>

#include "cube/agg_kernels.h"
#include "io/env.h"
#include "obs/build_info.h"
#include "util/logging.h"
#include "util/str_util.h"

namespace rased {

Rased::Rased(const RasedOptions& options) : options_(options) {}

namespace {

std::string MetaPath(const std::string& dir) {
  return env::JoinPath(dir, "rased.meta");
}

constexpr std::string_view kMetaHeader = "rased-meta v2";

/// "roadtypes <names> <hash>": road-type ids are cube coordinates, so a
/// reopen must name them alike.
std::string RoadTypesLine(const RoadTypeTable& road_types) {
  return StrFormat("roadtypes %zu %016llx", road_types.size(),
                   static_cast<unsigned long long>(road_types.Fingerprint()));
}

/// rased.meta as written by SaveMeta, read over `base`: each structural
/// line (schema, levels, warehouse) overrides its field of `base.dir`'s
/// options, an absent line keeps `base`'s value, and the road-type list is
/// required.
struct MetaFile {
  RasedOptions options;
  std::string road_types_line;
  std::vector<std::pair<uint64_t, uint64_t>> zone_sizes;  // (id, size)
};

Result<MetaFile> ReadMeta(const RasedOptions& base) {
  RASED_ASSIGN_OR_RETURN(std::string contents,
                         env::ReadFile(MetaPath(base.dir)));
  std::vector<std::string> lines = Split(contents, '\n');
  if (lines.empty() || lines[0] != kMetaHeader) {
    return Status::Corruption("bad rased.meta header in " + base.dir);
  }
  MetaFile meta{base, {}, {}};
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = Trim(lines[i]);
    if (line.empty()) continue;
    std::vector<std::string> f = Split(line, ' ');
    if (f[0] == "schema" && f.size() == 5) {
      uint32_t dims[4];
      for (int d = 0; d < 4; ++d) {
        RASED_ASSIGN_OR_RETURN(int64_t n, ParseInt(f[d + 1]));
        dims[d] = static_cast<uint32_t>(n);
      }
      meta.options.schema = CubeSchema{dims[0], dims[1], dims[2], dims[3]};
    } else if (f[0] == "levels" && f.size() == 2) {
      RASED_ASSIGN_OR_RETURN(int64_t levels, ParseInt(f[1]));
      meta.options.num_levels = static_cast<int>(levels);
    } else if (f[0] == "warehouse" && f.size() == 2) {
      meta.options.enable_warehouse = f[1] == "1";
    } else if (f[0] == "roadtypes" && f.size() == 3) {
      meta.road_types_line = line;
    } else if (f[0] == "zonesize" && f.size() == 3) {
      RASED_ASSIGN_OR_RETURN(uint64_t id, ParseUint(f[1]));
      RASED_ASSIGN_OR_RETURN(uint64_t size, ParseUint(f[2]));
      meta.zone_sizes.emplace_back(id, size);
    } else {
      return Status::Corruption("bad rased.meta line: " + std::string(line));
    }
  }
  if (meta.road_types_line.empty()) {
    return Status::Corruption("rased.meta in " + base.dir +
                              " records no road-type list");
  }
  return meta;
}

}  // namespace

Status Rased::SaveMeta() const {
  std::string out = std::string(kMetaHeader) + "\n";
  out += StrFormat("schema %u %u %u %u\n", options_.schema.num_element_types,
                   options_.schema.num_countries,
                   options_.schema.num_road_types,
                   options_.schema.num_update_types);
  out += StrFormat("levels %d\n", options_.num_levels);
  out += StrFormat("warehouse %d\n", options_.enable_warehouse ? 1 : 0);
  out += RoadTypesLine(*road_types_) + "\n";
  // Country road-network sizes (Percentage(*) denominators); aggregates
  // are derived on load.
  for (ZoneId id : world_->country_ids()) {
    uint64_t size = world_->zone(id).road_network_size;
    if (size > 0) {
      out += StrFormat("zonesize %u %llu\n", id,
                       static_cast<unsigned long long>(size));
    }
  }
  return env::WriteFileAtomic(MetaPath(options_.dir), out);
}

Status Rased::LoadMeta() {
  RASED_ASSIGN_OR_RETURN(MetaFile meta, ReadMeta(options_));
  if (!(meta.options.schema == options_.schema)) {
    return Status::InvalidArgument("rased.meta schema " +
                                   meta.options.schema.ToString() +
                                   " does not match requested " +
                                   options_.schema.ToString());
  }
  if (meta.options.num_levels != options_.num_levels) {
    return Status::InvalidArgument(
        StrFormat("rased.meta has %d levels, requested %d",
                  meta.options.num_levels, options_.num_levels));
  }
  // The warehouse line is informational; the index/warehouse files
  // themselves decide.
  const std::string want = RoadTypesLine(*road_types_);
  if (meta.road_types_line != want) {
    return Status::InvalidArgument(
        "rased.meta in " + options_.dir + " records the road-type list '" +
        meta.road_types_line + "', this build has '" + want +
        "': its cubes are keyed by other road-type ids");
  }
  for (const auto& [id, size] : meta.zone_sizes) {
    if (id < world_->num_zones() &&
        world_->zone(static_cast<ZoneId>(id)).kind == ZoneKind::kCountry) {
      world_->SetRoadNetworkSize(static_cast<ZoneId>(id), size);
    }
  }
  return Status::OK();
}

Result<RasedOptions> Rased::LoadOptions(const std::string& dir) {
  RasedOptions base;
  base.dir = dir;
  RASED_ASSIGN_OR_RETURN(MetaFile meta, ReadMeta(base));
  return meta.options;
}

Result<std::unique_ptr<Rased>> Rased::Create(const RasedOptions& options) {
  auto rased = std::unique_ptr<Rased>(new Rased(options));
  RASED_RETURN_IF_ERROR(rased->InitComponents(/*create=*/true));
  RASED_RETURN_IF_ERROR(rased->SaveMeta());
  return rased;
}

Result<std::unique_ptr<Rased>> Rased::Open(const RasedOptions& options) {
  auto rased = std::unique_ptr<Rased>(new Rased(options));
  RASED_RETURN_IF_ERROR(rased->InitComponents(/*create=*/false));
  RASED_RETURN_IF_ERROR(rased->LoadMeta());
  return rased;
}

Status Rased::InitComponents(bool create) {
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  traces_ = std::make_unique<TraceRecorder>(options_.trace, metrics_);
  // Build identity on /metrics from boot: which exact binary (and kernel
  // dispatch state) produced every number this instance exports.
  RegisterBuildInfoGauge(
      metrics_, MakeBuildInfo(Avx2DispatchLabel(kernels::Avx2CompiledIn(),
                                                kernels::Avx2Active())));
  ingest_metrics_.records = metrics_->GetCounter(
      "rased_ingest_records_total", "UpdateList tuples ingested");
  ingest_metrics_.days =
      metrics_->GetCounter("rased_ingest_days_total", "Day cubes ingested");

  world_ = std::make_unique<WorldMap>(options_.schema.num_countries);
  road_types_ =
      std::make_unique<RoadTypeTable>(options_.schema.num_road_types);
  crawl_pool_ = std::make_unique<CrawlPool>();

  TemporalIndexOptions index_options;
  index_options.schema = options_.schema;
  index_options.num_levels = options_.num_levels;
  index_options.dir = env::JoinPath(options_.dir, "index");
  index_options.device = options_.device;
  index_options.metrics = metrics_;
  if (create) {
    RASED_ASSIGN_OR_RETURN(index_, TemporalIndex::Create(index_options));
  } else {
    RASED_ASSIGN_OR_RETURN(index_, TemporalIndex::Open(index_options));
  }

  builder_ = std::make_unique<CubeBuilder>(options_.schema, world_.get());
  CacheOptions cache_options = options_.cache;
  cache_options.metrics = metrics_;
  cache_ = std::make_unique<CubeCache>(cache_options);
  executor_ = std::make_unique<QueryExecutor>(index_.get(), cache_.get(),
                                              world_.get(),
                                              options_.plan_mode, metrics_);

  if (options_.enable_warehouse) {
    WarehouseOptions wh_options;
    wh_options.dir = env::JoinPath(options_.dir, "warehouse");
    wh_options.device = options_.device;
    if (create) {
      RASED_ASSIGN_OR_RETURN(warehouse_, Warehouse::Create(wh_options));
    } else {
      RASED_ASSIGN_OR_RETURN(warehouse_, Warehouse::Open(wh_options));
    }
    warehouse_->pager()->RegisterMetrics(metrics_, "warehouse");
  }
  return Status::OK();
}

Status Rased::IngestDailyArtifacts(Date day, std::string_view osc_xml,
                                   std::string_view changesets_xml) {
  MutexLock lock(&ingest_mu_);
  ChangesetStore changesets;
  RASED_RETURN_IF_ERROR(
      changesets.AddFromXml(changesets_xml, crawl_pool_.get()));
  DailyCrawler crawler(world_.get(), road_types_.get(), metrics_);
  std::vector<std::vector<UpdateRecord>> parts;
  RASED_RETURN_IF_ERROR(
      crawler.CrawlDiff(osc_xml, changesets, crawl_pool_.get(), &parts));
  return IngestDayRecordsLocked(day, parts);
}

Status Rased::IngestDayRecords(Date day,
                               const std::vector<UpdateRecord>& records) {
  MutexLock lock(&ingest_mu_);
  return IngestDayRecordsLocked(day, {&records, 1});
}

Status Rased::IngestDayRecordsLocked(
    Date day, std::span<const std::vector<UpdateRecord>> parts) {
  std::vector<CubeCell> pairs;
  size_t records = 0;
  for (const std::vector<UpdateRecord>& part : parts) {
    for (const UpdateRecord& r : part) {
      if (r.date != day) {
        return Status::InvalidArgument(
            "record dated " + r.date.ToString() +
            " in ingest for " + day.ToString());
      }
      builder_->AddRecord(r, &pairs);
    }
    records += part.size();
  }
  RASED_RETURN_IF_ERROR(index_->AppendDay(
      day, SparseCube::FromPairs(options_.schema, std::move(pairs))));
  if (warehouse_ != nullptr) {
    for (const std::vector<UpdateRecord>& part : parts) {
      RASED_RETURN_IF_ERROR(warehouse_->Append(part));
    }
  }
  ingest_metrics_.days->Increment();
  ingest_metrics_.records->Increment(records);
  return RefreshCacheLocked();
}

Status Rased::IngestDayCube(Date day, const DataCube& cube) {
  MutexLock lock(&ingest_mu_);
  RASED_RETURN_IF_ERROR(index_->AppendDay(day, SparseCube::FromDense(cube)));
  ingest_metrics_.days->Increment();
  return RefreshCacheLocked();
}

Status Rased::ApplyMonthlyArtifacts(Date month_start,
                                    std::string_view history_xml,
                                    std::string_view changesets_xml) {
  MutexLock lock(&ingest_mu_);
  ChangesetStore changesets;
  RASED_RETURN_IF_ERROR(
      changesets.AddFromXml(changesets_xml, crawl_pool_.get()));
  MonthlyCrawler crawler(world_.get(), road_types_.get());
  std::vector<std::vector<UpdateRecord>> parts;
  DateRange month(month_start, month_start.month_end());
  RASED_RETURN_IF_ERROR(crawler.CrawlHistory(history_xml, changesets, month,
                                             crawl_pool_.get(), &parts));

  // One cube per day of the month (empty cubes for quiet days).
  std::map<Date, SparseCube> by_day = builder_->BuildSparseDailyCubes(parts);
  std::vector<SparseCube> cubes;
  cubes.reserve(static_cast<size_t>(month.num_days()));
  for (Date d = month.first; d <= month.last; d = d.next()) {
    auto it = by_day.find(d);
    cubes.push_back(it != by_day.end() ? std::move(it->second)
                                       : SparseCube(options_.schema));
  }
  RASED_RETURN_IF_ERROR(index_->RebuildMonth(month_start, cubes));
  // The refresh drops the replaced cubes and reads only the replacements
  // it selects; every other entry keeps serving.
  return RefreshCacheLocked();
}

Status Rased::WarmCache() {
  MutexLock lock(&ingest_mu_);
  RASED_RETURN_IF_ERROR(cache_->Warm(index_.get()));
  cache_warmed_ = true;
  // Warm-up reads are offline cost; keep query-time I/O accounting clean.
  index_->pager()->ResetStats();
  return Status::OK();
}

Status Rased::RefreshCacheLocked() {
  if (!cache_warmed_ && !cache_->AdmitsOnQuery()) return Status::OK();
  return cache_->Warm(index_.get());
}

Result<QueryResult> Rased::Query(const AnalysisQuery& query) const {
  // Lock-free: the executor pins the current catalog version (MVCC) and
  // the whole execution runs against that immutable snapshot.
  return executor_->Execute(query);
}

Result<std::vector<UpdateRecord>> Rased::SampleInBox(const BoundingBox& box,
                                                     size_t n) const {
  if (warehouse_ == nullptr) {
    return Status::NotSupported("warehouse disabled in this instance");
  }
  return warehouse_->SampleInBox(box, n);
}

Result<std::vector<UpdateRecord>> Rased::SampleByChangeset(
    uint64_t changeset_id) const {
  if (warehouse_ == nullptr) {
    return Status::NotSupported("warehouse disabled in this instance");
  }
  return warehouse_->FindByChangeset(changeset_id);
}

Result<std::vector<UpdateRecord>> Rased::Sample(const SampleFilter& filter,
                                                size_t n) const {
  if (warehouse_ == nullptr) {
    return Status::NotSupported("warehouse disabled in this instance");
  }
  return warehouse_->Sample(filter, /*box=*/nullptr, n);
}

Status Rased::Sync() {
  MutexLock lock(&ingest_mu_);
  RASED_RETURN_IF_ERROR(SaveMeta());
  RASED_RETURN_IF_ERROR(index_->Sync());
  if (warehouse_ != nullptr) RASED_RETURN_IF_ERROR(warehouse_->Sync());
  return Status::OK();
}

}  // namespace rased
