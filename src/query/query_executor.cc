#include "query/query_executor.h"

#include <bit>
#include <memory>
#include <vector>

#include "cube/cube_codec.h"
#include "obs/heap_stats.h"
#include "obs/request_context.h"
#include "util/clock.h"
#include "util/logging.h"

namespace rased {

QueryExecutor::QueryExecutor(const TemporalIndex* index, CubeCache* cache,
                             const WorldMap* world, PlanMode mode,
                             MetricsRegistry* metrics)
    : index_(index),
      cache_(cache),
      world_(world),
      mode_(mode),
      optimizer_(index, cache) {
  if (metrics != nullptr) {
    metrics_.queries =
        metrics->GetCounter("rased_queries_total", "Analysis queries executed");
    metrics_.errors = metrics->GetCounter("rased_query_errors_total",
                                          "Analysis queries that failed");
    metrics_.cubes_scanned = metrics->GetCounter(
        "rased_query_cubes_scanned_total", "Cubes aggregated across queries");
    metrics_.alloc_ops = metrics->GetCounter(
        "rased_query_alloc_ops_total",
        "Heap allocation operations charged to query execution");
    // Exemplar tracking remembers the worst trace id per latency bucket
    // (served by /api/trace?worst=1). First registration wins, and the
    // executor registers eagerly, so the option reliably takes effect.
    HistogramOptions latency_options;
    latency_options.track_exemplars = true;
    metrics_.cpu_micros = metrics->GetHistogram(
        "rased_query_cpu_micros",
        "Per-query wall time of planning + aggregation (microseconds)",
        latency_options);
    metrics_.device_micros = metrics->GetHistogram(
        "rased_query_device_micros",
        "Per-query simulated device-model time (microseconds)");
    // Byte-scaled buckets: 1KiB..2GiB at 2x resolution.
    HistogramOptions byte_options;
    byte_options.first_bound = 1024;
    byte_options.num_buckets = 22;
    metrics_.alloc_bytes = metrics->GetHistogram(
        "rased_query_alloc_bytes",
        "Heap bytes allocated per query (allocator usable sizes)",
        byte_options);
    metrics_.alloc_peak_bytes = metrics->GetHistogram(
        "rased_query_alloc_peak_bytes",
        "Peak net-live heap bytes per query above its starting baseline",
        byte_options);
  }
}

QueryPlan QueryExecutor::PlanFor(const AnalysisQuery& query,
                                 const CatalogSnapshot& snapshot) const {
  DateRange window = query.range.Intersect(snapshot.coverage());
  // Grouping by Date needs per-day resolution, which only daily cubes have.
  if (mode_ == PlanMode::kFlat || query.group_date) {
    return optimizer_.PlanFlat(snapshot, window);
  }
  return optimizer_.Plan(snapshot, window);
}

QueryPlan QueryExecutor::PlanFor(const AnalysisQuery& query) const {
  return PlanFor(query, index_->Snapshot());
}

Result<QueryResult> QueryExecutor::Execute(const AnalysisQuery& query) const {
  return Execute(query, index_->Snapshot());
}

namespace {

/// The Country dimension mixes disjoint countries with overlapping
/// zone-of-interest aggregates (continents, US states). A query with no
/// explicit country filter must range over a *partition* of the world —
/// the country-kind zones plus the unknown bucket — or every update inside
/// a continent would be counted twice. Explicitly filtering on a continent
/// or state remains possible by naming it.
std::vector<uint32_t> DefaultCountryPartition(const WorldMap& world) {
  std::vector<uint32_t> ids;
  ids.push_back(kZoneUnknown);
  for (ZoneId id : world.country_ids()) ids.push_back(id);
  return ids;
}

CubeSlice SliceFor(const AnalysisQuery& query, const WorldMap& world) {
  CubeSlice slice;
  for (ElementType t : query.element_types) {
    slice.element_types.push_back(static_cast<uint32_t>(t));
  }
  if (query.countries.empty()) {
    slice.countries = DefaultCountryPartition(world);
  } else {
    for (ZoneId z : query.countries) slice.countries.push_back(z);
  }
  for (RoadTypeId r : query.road_types) slice.road_types.push_back(r);
  for (UpdateType u : query.update_types) {
    slice.update_types.push_back(static_cast<uint32_t>(u));
  }
  // IN-lists are sets: a filter value named twice must not double-count.
  slice.Normalize();
  return slice;
}

}  // namespace

Result<QueryResult> QueryExecutor::Execute(
    const AnalysisQuery& query, const CatalogSnapshot& snapshot) const {
  if (query.percentage && !query.group_country) {
    if (metrics_.errors != nullptr) metrics_.errors->Increment();
    return Status::InvalidArgument(
        "Percentage(*) requires grouping by Country (the denominator is the "
        "country's road-network size)");
  }
  // Every heap byte this thread touches from here on is charged to the
  // query (obs/heap_stats.h interposition) — exact, not sampled, and
  // independent of whether the CPU profiler is running.
  ResourceScope resources;
  const int64_t t_start = NowMicros();

  QueryResult result;
  result.stats.epoch = snapshot.epoch();
  QueryPlan plan = PlanFor(query, snapshot);
  const size_t n = plan.cubes.size();
  result.stats.cubes_total = n;

  CubeSlice slice = SliceFor(query, *world_);
  const int64_t t_planned = NowMicros();

  // ---- Phase 1: gather. Probe the cache for every planned cube up
  // front, then fetch all misses in ONE batched index read so physically
  // adjacent cube pages coalesce into single device operations. Cache
  // hits are shared_ptrs, so each blob stays alive even if a concurrent
  // eviction drops it mid-aggregation; misses live in the batch's own
  // storage and are aggregated zero-copy. The batch read charges this
  // query's IoStats (result.stats.io), so concurrent queries account
  // their I/O independently and deterministically.
  std::vector<std::shared_ptr<const EncodedCube>> hits(n);
  std::vector<CubeKey> miss_keys;
  std::vector<PageId> miss_pages;
  for (size_t i = 0; i < n; ++i) {
    const CubeKey& key = plan.cubes[i];
    // Page-validated probe: a planned cube always resolves in its own
    // snapshot, and the entry hits only if it was cached from the same
    // page — a stale cube from a retired epoch can never serve here.
    PageId page = snapshot.PageOf(key).value_or(kInvalidPageId);
    if (cache_ != nullptr) hits[i] = cache_->FindEncoded(key, page);
    if (hits[i] != nullptr) {
      ++result.stats.cubes_from_cache;
    } else {
      miss_keys.push_back(key);
      miss_pages.push_back(page);
    }
    ++result.stats.cubes_per_level[static_cast<int>(key.level)];
  }
  result.stats.cubes_from_disk = miss_keys.size();
  const int64_t t_probed = NowMicros();

  EncodedCubeBatch fetched;
  if (!miss_keys.empty()) {
    auto batch = index_->ReadCubes(snapshot, miss_keys, &result.stats.io);
    if (!batch.ok()) {
      if (metrics_.errors != nullptr) metrics_.errors->Increment();
      return batch.status();
    }
    fetched = std::move(batch).value();
    if (cache_ != nullptr && cache_->AdmitsOnQuery()) {
      // LRU only: copy each blob out of the batch in its resident form
      // and hand it over, with its source page for later page-validated
      // probes.
      for (size_t j = 0; j < miss_keys.size(); ++j) {
        auto blob = fetched.Extract(j);
        if (!blob.ok()) {
          if (metrics_.errors != nullptr) metrics_.errors->Increment();
          return blob.status();
        }
        cache_->Insert(miss_keys[j], miss_pages[j], std::move(blob).value());
      }
    }
  }
  const int64_t t_fetched = NowMicros();

  // ---- Phase 2: aggregate. A flat dense accumulator indexed by the
  // packed grouped coordinates replaces the former per-cell map: every
  // cube, hit or miss, streams its encoded body in through
  // AccumulateEncodedSlice, and rows are read back out of non-zero slots.
  // Packed slot order is row-major over the grouped dimensions in schema
  // order, which is exactly the row order the old tuple-keyed std::map
  // produced, so output order is unchanged.
  const CubeSchema& schema = index_->options().schema;
  GroupBySpec spec;
  spec.element_type = query.group_element_type;
  spec.country = query.group_country;
  spec.road_type = query.group_road_type;
  spec.update_type = query.group_update_type;
  std::vector<uint64_t> acc(GroupAccumulatorSize(schema, spec), 0);

  // Decodes a packed accumulator slot back into grouped coordinates
  // (kNoGroup for ungrouped dimensions), inverting the kernel's strides.
  auto decode = [&schema, &spec](size_t slot, ResultRow* row) {
    if (spec.update_type) {
      row->update_type = static_cast<int32_t>(slot % schema.num_update_types);
      slot /= schema.num_update_types;
    }
    if (spec.road_type) {
      row->road_type = static_cast<int32_t>(slot % schema.num_road_types);
      slot /= schema.num_road_types;
    }
    if (spec.country) {
      row->country = static_cast<int32_t>(slot % schema.num_countries);
      slot /= schema.num_countries;
    }
    if (spec.element_type) {
      row->element_type = static_cast<int32_t>(slot);
    }
  };

  // Grouping by Date keys rows by each (daily) cube's date on top of the
  // packed coordinates. After each cube the accumulator is flushed, slot
  // by slot in slot order, from the bitmap of slots the cube touched; the
  // plan lists its daily cubes in increasing date order (PlanFlat), so
  // appending each flushed row to its element type's list keeps every
  // list in (date, country, road_type, update_type) order, and the lists
  // concatenate to the (element_type, date, ...) row order.
  std::vector<uint64_t> touched(
      query.group_date ? TouchedWords(acc.size()) : 0, 0);
  std::vector<std::vector<ResultRow>> dated_rows(
      !query.group_date ? 0 : spec.element_type ? schema.num_element_types
                                                : 1);

  const SliceLuts luts(schema, slice, spec);
  size_t next_miss = 0;
  for (size_t i = 0; i < n; ++i) {
    // A hit's resident blob, or the miss's slot in the batch arena.
    const bool hit = hits[i] != nullptr;
    const size_t j = hit ? 0 : next_miss++;
    Status st = AccumulateEncodedSlice(
        luts, hit ? hits[i]->encoding() : fetched.encoding(j),
        hit ? hits[i]->body() : fetched.body(j),
        hit ? hits[i]->body_bytes() : fetched.body_bytes(j), acc.data(),
        query.group_date ? touched.data() : nullptr);
    if (!st.ok()) {
      if (metrics_.errors != nullptr) metrics_.errors->Increment();
      return st;
    }
    if (query.group_date) {
      const Date date = plan.cubes[i].range().first;
      for (size_t w = 0; w < touched.size(); ++w) {
        for (uint64_t bits = touched[w]; bits != 0; bits &= bits - 1) {
          const size_t slot = w * 64 + std::countr_zero(bits);
          if (acc[slot] == 0) continue;
          ResultRow row;
          decode(slot, &row);
          row.date = date;
          row.has_date = true;
          row.count = acc[slot];
          acc[slot] = 0;
          dated_rows[spec.element_type ? row.element_type : 0].push_back(row);
        }
        touched[w] = 0;
      }
    }
  }

  auto finish_row = [&](ResultRow* row) {
    if (query.percentage) {
      uint64_t network = world_->zone(static_cast<ZoneId>(row->country))
                             .road_network_size;
      row->percentage =
          network > 0 ? 100.0 * static_cast<double>(row->count) /
                            static_cast<double>(network)
                      : 0.0;
    }
    result.rows.push_back(*row);
  };

  if (query.group_date) {
    size_t total = 0;
    for (const auto& rows : dated_rows) total += rows.size();
    result.rows.reserve(total);
    for (auto& rows : dated_rows) {
      for (ResultRow& row : rows) finish_row(&row);
    }
  } else {
    for (size_t slot = 0; slot < acc.size(); ++slot) {
      if (acc[slot] == 0) continue;
      ResultRow row;
      decode(slot, &row);
      row.count = acc[slot];
      finish_row(&row);
    }
  }

  // The device model charges virtual time rather than sleeping, so the
  // measured wall time is pure CPU; total_micros() adds the device charge.
  const int64_t t_done = NowMicros();
  result.stats.cpu_micros = t_done - t_start;

  const ResourceUsage heap = resources.Usage();
  result.stats.alloc_bytes = heap.allocated_bytes;
  result.stats.alloc_ops = heap.alloc_ops;
  result.stats.peak_alloc_bytes = static_cast<uint64_t>(heap.peak_bytes);

  // Span breakdown for /api/trace. All simulated device time is charged
  // during the batched miss fetch, so only that span carries device
  // micros; the wall components partition cpu_micros exactly.
  result.spans = {
      {"plan", t_planned - t_start, 0},
      {"cache_probe", t_probed - t_planned, 0},
      {"fetch", t_fetched - t_probed, result.stats.io.simulated_device_micros},
      {"aggregate", t_done - t_fetched, 0},
  };

  if (metrics_.queries != nullptr) {
    metrics_.queries->Increment();
    metrics_.cubes_scanned->Increment(result.stats.cubes_total);
    metrics_.cpu_micros->Observe(result.stats.cpu_micros, CurrentTraceId());
    metrics_.device_micros->Observe(result.stats.io.simulated_device_micros);
    metrics_.alloc_ops->Increment(result.stats.alloc_ops);
    metrics_.alloc_bytes->Observe(
        static_cast<int64_t>(result.stats.alloc_bytes));
    metrics_.alloc_peak_bytes->Observe(heap.peak_bytes);
  }
  return result;
}

}  // namespace rased
