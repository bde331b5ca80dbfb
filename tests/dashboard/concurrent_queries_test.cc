// Hammers DashboardService and the shared-state components beneath it from
// many threads at once. These tests exist to give TSan and the clang
// thread-safety annotations something real to chew on: the lock-free MVCC
// read path (catalog snapshots pinned per query), the write-side ingest
// mutex, CubeCache::mu_, and HttpServer::mu_ are all contended here.
// There is deliberately no lock in DashboardService itself — queries pin
// immutable catalog versions instead of taking a facade lock, ingest
// publishes new versions with a single atomic swap, and these tests are
// what keeps that contract honest: readers must keep completing, with
// bit-identical answers and accounting, while publications land.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cube/cube_codec.h"
#include "dashboard/dashboard_service.h"
#include "test_helpers.h"
#include "util/clock.h"

namespace rased {
namespace {

std::string Fetch(int port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Everything after the header block. Responses carry a per-request
/// X-Rased-Trace-Id header, so byte-for-byte agreement holds for bodies,
/// not for whole responses.
std::string Body(const std::string& response) {
  size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? response : response.substr(at + 4);
}

// Bit-for-bit row comparison (doubles compared exactly: percentage is a
// deterministic function of count and the static zone sizes).
bool RowsEqual(const std::vector<ResultRow>& a,
               const std::vector<ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].element_type != b[i].element_type || a[i].country != b[i].country ||
        a[i].road_type != b[i].road_type ||
        a[i].update_type != b[i].update_type ||
        a[i].has_date != b[i].has_date || a[i].count != b[i].count ||
        a[i].percentage != b[i].percentage) {
      return false;
    }
    if (a[i].has_date && !(a[i].date == b[i].date)) return false;
  }
  return true;
}

class ConcurrentQueriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("concurrent-queries-test");
    rased_ = testing_helpers::MakePopulatedRased(
                 env::JoinPath(dir_->path(), "rased"))
                 .release();
    ASSERT_NE(rased_, nullptr);
    service_ = new DashboardService(rased_);
    ASSERT_TRUE(service_->Start(0).ok());
  }

  static void TearDownTestSuite() {
    service_->Stop();
    delete service_;
    delete rased_;
    delete dir_;
    service_ = nullptr;
    rased_ = nullptr;
    dir_ = nullptr;
  }

  static TempDir* dir_;
  static Rased* rased_;
  static DashboardService* service_;
};

TempDir* ConcurrentQueriesTest::dir_ = nullptr;
Rased* ConcurrentQueriesTest::rased_ = nullptr;
DashboardService* ConcurrentQueriesTest::service_ = nullptr;

// N worker threads, each firing a mix of every dashboard endpoint. All
// responses must be well-formed 200s/400s — no torn bodies, no crashes —
// and the total served must match what we sent.
TEST_F(ConcurrentQueriesTest, MixedEndpointsFromManyThreads) {
  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 25;
  const std::string targets[] = {
      "/api/query?from=2021-01-01&to=2021-02-28&group=country",
      "/api/query?group=country,update_type&percentage=1",
      "/api/query?group=date&format=timeseries",
      "/api/sql?q=SELECT%20Country,%20COUNT(*)%20FROM%20UpdateList%20"
      "GROUP%20BY%20Country",
      "/api/stats",
      "/api/zones",
      "/api/query?from=bogus",  // parse error path, must 400 not crash
  };
  constexpr size_t kNumTargets = sizeof(targets) / sizeof(targets[0]);

  std::atomic<int> ok{0};
  std::atomic<int> client_error{0};
  std::atomic<int> malformed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::string& target =
            targets[static_cast<size_t>(t + i) % kNumTargets];
        std::string response = Fetch(service_->port(), target);
        if (response.find("200 OK") != std::string::npos) {
          ++ok;
        } else if (response.find("400 Bad Request") != std::string::npos) {
          ++client_error;
        } else {
          ++malformed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(malformed.load(), 0);
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(client_error.load(), 0);  // the bogus-date target
  EXPECT_EQ(ok.load() + client_error.load(),
            kThreads * kRequestsPerThread);
}

// Identical concurrent queries must all see the same answer: the cache and
// executor may not corrupt shared state under contention.
TEST_F(ConcurrentQueriesTest, ConcurrentIdenticalQueriesAgree) {
  constexpr int kThreads = 6;
  const std::string target =
      "/api/query?from=2021-01-01&to=2021-02-28&group=country&format=csv";
  const std::string first = Fetch(service_->port(), target);
  ASSERT_NE(first.find("200 OK"), std::string::npos);
  const std::string expected = Body(first);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10; ++i) {
        std::string response = Fetch(service_->port(), target);
        if (response.find("200 OK") == std::string::npos ||
            Body(response) != expected) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Drives CubeCache directly from many threads under the LRU policy:
// readers hold shared_ptrs across concurrent evictions and must never see
// a dangling cube. This is the cache's documented threading contract.
TEST_F(ConcurrentQueriesTest, CubeCacheParallelFindInsertEvict) {
  CubeSchema schema = CubeSchema::BenchScale();
  auto blob_for = [&schema](Date day) {
    DataCube cube(schema);
    cube.Add(0, 0, 0, 0, static_cast<uint64_t>(day.day()));
    return std::make_shared<const EncodedCube>(EncodedCube::Encode(cube));
  };
  CacheOptions options;
  // Tiny budget — room for only three of the 16 sparse-encoded one-cell
  // cubes the threads cycle through — to force constant eviction.
  options.byte_budget =
      3 * CubeCache::EntryBytes(
              blob_for(Date::FromYmd(2021, 1, 1))->body_bytes());
  options.policy = CachePolicy::kLru;
  CubeCache cache(options);

  constexpr int kThreads = 8;
  constexpr int kDays = 16;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        Date day = Date::FromYmd(2021, 1, 1 + (t + i) % kDays);
        CubeKey key = CubeKey::Daily(day);
        std::shared_ptr<const EncodedCube> hit =
            cache.FindEncoded(key, kInvalidPageId);
        if (hit != nullptr) {
          // The blob must stay readable even if another thread evicts it
          // right now.
          auto cube = hit->Decode();
          if (!cube.ok() ||
              cube.value().Total() != static_cast<uint64_t>(day.day())) {
            failed.store(true);
          }
        } else {
          cache.Insert(key, kInvalidPageId, blob_for(day));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  CacheStats stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(cache.bytes_used(), options.byte_budget);
}

// Index metadata lookups are internally synchronized; hammer them while a
// stats endpoint (which also walks the catalog) runs over HTTP.
TEST_F(ConcurrentQueriesTest, IndexMetadataReadsRaceStatsEndpoint) {
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<bool> empty_coverage{false};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      TemporalIndex* index = rased_->index();
      while (!stop.load()) {
        DateRange coverage = index->coverage();
        if (coverage.empty()) {
          empty_coverage.store(true);
          break;
        }
        index->Contains(CubeKey::Daily(coverage.first));
        index->ExistingKeys(Level::kWeekly, coverage);
        index->LatestKeys(Level::kDaily, 4);
        index->StorageStats();
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    std::string response = Fetch(service_->port(), "/api/stats");
    EXPECT_NE(response.find("200 OK"), std::string::npos);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(empty_coverage.load());
}

// The accounting side of the refactor: every query owns its QueryStats,
// accumulated through a per-call IoStats threaded from the pager up. With
// the static recency cache the I/O of a query is a pure function of the
// query, so an 8-way concurrent run must reproduce the serial run's
// accounting bit for bit (cpu_micros is wall time and excluded).
TEST_F(ConcurrentQueriesTest, PerQueryStatsMatchSerialRunExactly) {
  constexpr int kThreads = 8;

  std::vector<AnalysisQuery> queries;
  for (int m = 1; m <= 2; ++m) {
    for (int day = 1; day <= 24; day += 3) {
      AnalysisQuery q;
      q.range = DateRange(Date::FromYmd(2021, m, day),
                          Date::FromYmd(2021, m, day + 4));
      q.group_country = true;
      queries.push_back(q);
    }
  }

  std::vector<QueryStats> reference(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = rased_->Query(queries[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference[i] = result.value().stats;
  }

  std::atomic<int> divergences{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    // Every worker runs the full list, so each query executes 8 times
    // concurrently with itself and with every other query.
    threads.emplace_back([&] {
      for (size_t i = 0; i < queries.size(); ++i) {
        auto result = rased_->Query(queries[i]);
        if (!result.ok()) {
          ++failures;
          continue;
        }
        const QueryStats& got = result.value().stats;
        const QueryStats& want = reference[i];
        bool same = got.io == want.io &&
                    got.cubes_total == want.cubes_total &&
                    got.cubes_from_cache == want.cubes_from_cache &&
                    got.cubes_from_disk == want.cubes_from_disk;
        for (int level = 0; level < 4; ++level) {
          same = same &&
                 got.cubes_per_level[level] == want.cubes_per_level[level];
        }
        if (!same) ++divergences;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(divergences.load(), 0);
}

// Readers keep getting correct answers while a writer appends new days
// through the facade's write path and, midway, rebuilds February at its
// month end. The fixture's cache is warmed, so every publication also
// refreshes the cache under the readers. Each reader pins a snapshot per
// query and alternates the settled history with the newest published day;
// once the writer is done, every answer is re-run serially against its
// own snapshot and must match row for row. This test and the MVCC tests
// after it grow the instance's coverage (appends must stay consecutive),
// so later tests derive their first append day from live coverage rather
// than hardcoding dates — correct both under ctest (one process per test)
// and when the binary runs every test in one process.
TEST_F(ConcurrentQueriesTest, QueriesStayCorrectWhileIngestAppendsDays) {
  constexpr int kReaders = 4;
  constexpr int kNewDays = 14;
  constexpr int kRebuildAfterDay = 7;

  AnalysisQuery history;
  history.range = DateRange(Date::FromYmd(2021, 1, 1),
                            Date::FromYmd(2021, 2, 28));
  history.group_country = true;

  // February's full-history fragment from the fixture's generator.
  const Date february = Date::FromYmd(2021, 2, 1);
  SynthOptions synth;
  synth.seed = 21;
  synth.base_updates_per_day = 40.0;
  synth.period = DateRange(Date::FromYmd(2021, 1, 1), february.month_end());
  const MonthArtifacts rebuild =
      UpdateGenerator(synth, &rased_->world(), rased_->road_types())
          .GenerateMonthArtifacts(february);

  struct Answer {
    CatalogSnapshot snapshot;
    AnalysisQuery query;
    std::vector<ResultRow> rows;
  };
  std::vector<std::vector<Answer>> answers(kReaders);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      // Bounded and paced: a tight shared-lock loop would starve the
      // writer forever under glibc's reader-preferring rwlock, and this
      // test is about correct answers during appends, not lock fairness.
      for (int i = 0; i < 200 && !done.load(); ++i) {
        CatalogSnapshot snapshot = rased_->index()->Snapshot();
        AnalysisQuery query = history;
        if (i % 2 == 1) {
          const Date newest = snapshot.coverage().last;
          query.range = DateRange(newest, newest);
        }
        auto result = rased_->executor()->Execute(query, snapshot);
        if (!result.ok()) {
          ++failures;
        } else {
          answers[t].push_back(
              {snapshot, query, std::move(result).value().rows});
        }
        // The HTTP path must keep serving throughout as well.
        if (t == 0 && i % 8 == 0) {
          std::string response = Fetch(
              service_->port(),
              "/api/query?from=2021-01-01&to=2021-02-28&group=country");
          if (response.find("200 OK") == std::string::npos) ++failures;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  CubeSchema schema = rased_->options().schema;
  std::thread writer([&] {
    for (int day = 1; day <= kNewDays; ++day) {
      DataCube cube(schema);
      cube.Add(0, 0, 0, 0, static_cast<uint64_t>(day));
      Status s = rased_->IngestDayCube(Date::FromYmd(2021, 3, day), cube);
      if (!s.ok()) ++failures;
      if (day == kRebuildAfterDay) {
        s = rased_->ApplyMonthlyArtifacts(february, rebuild.history_xml,
                                          rebuild.changesets_xml);
        if (!s.ok()) ++failures;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  writer.join();
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Serial re-runs at each answer's own epoch.
  int wrong_answers = 0;
  size_t checked = 0;
  for (const std::vector<Answer>& reader_answers : answers) {
    for (const Answer& answer : reader_answers) {
      auto serial = rased_->executor()->Execute(answer.query, answer.snapshot);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      if (!RowsEqual(serial.value().rows, answer.rows)) ++wrong_answers;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(wrong_answers, 0);

  // The appended days are queryable once the writer is done.
  AnalysisQuery march;
  march.range = DateRange(Date::FromYmd(2021, 3, 1),
                          Date::FromYmd(2021, 3, kNewDays));
  march.group_date = true;
  auto after = rased_->Query(march);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  uint64_t total = 0;
  for (const ResultRow& row : after.value().rows) total += row.count;
  EXPECT_EQ(total, static_cast<uint64_t>(kNewDays * (kNewDays + 1) / 2));
}

// The MVCC publication contract, single-threaded and exact: a reader
// pinned before a publication keeps serving the old epoch bit for bit and
// never sees the new day; a reader arriving after the swap sees the new
// epoch and the new day. Also checks the epoch surfaces: QueryStats,
// /api/trace, and the rased_index_epoch gauge.
TEST_F(ConcurrentQueriesTest, PinnedSnapshotServesOldEpochBitForBit) {
  const TemporalIndex* index = rased_->index();
  const uint64_t epoch_before = index->epoch();

  AnalysisQuery history;
  history.range = DateRange(Date::FromYmd(2021, 1, 1),
                            Date::FromYmd(2021, 2, 28));
  history.group_country = true;

  CatalogSnapshot pinned = index->Snapshot();
  EXPECT_EQ(pinned.epoch(), epoch_before);
  auto before = rased_->executor()->Execute(history, pinned);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before.value().stats.epoch, epoch_before);

  // Publish one new version: the next day after current coverage (the
  // append sequence must stay consecutive, and under ctest each test case
  // runs in its own process, so the day is derived, not hardcoded).
  const Date new_day = pinned.coverage().last.next();
  DataCube cube(rased_->options().schema);
  cube.Add(0, 0, 0, 0, 77);
  ASSERT_TRUE(rased_->IngestDayCube(new_day, cube).ok());
  EXPECT_EQ(index->epoch(), epoch_before + 1);
  // The displaced version is pinned by `pinned`, so it is retired but not
  // yet reclaimed.
  EXPECT_GE(index->retired_versions(), 1u);

  // The pinned reader still runs to completion against its version —
  // identical rows, identical accounting, old epoch.
  auto after_pinned = rased_->executor()->Execute(history, pinned);
  ASSERT_TRUE(after_pinned.ok()) << after_pinned.status().ToString();
  EXPECT_EQ(after_pinned.value().stats.epoch, epoch_before);
  EXPECT_TRUE(RowsEqual(after_pinned.value().rows, before.value().rows));
  EXPECT_TRUE(after_pinned.value().stats.io == before.value().stats.io);

  // A fresh query pins the new version.
  auto fresh = rased_->Query(history);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value().stats.epoch, epoch_before + 1);
  EXPECT_TRUE(RowsEqual(fresh.value().rows, before.value().rows));

  // The new day exists only in the new version: the pinned snapshot's
  // coverage ends before it, so its window is empty.
  AnalysisQuery newday;
  newday.range = DateRange(new_day, new_day);
  auto old_view = rased_->executor()->Execute(newday, pinned);
  ASSERT_TRUE(old_view.ok()) << old_view.status().ToString();
  EXPECT_TRUE(old_view.value().rows.empty());
  auto new_view = rased_->Query(newday);
  ASSERT_TRUE(new_view.ok()) << new_view.status().ToString();
  uint64_t total = 0;
  for (const ResultRow& row : new_view.value().rows) total += row.count;
  EXPECT_EQ(total, 77u);

  // Epoch observability: the trace ring and the metrics exporter carry it.
  // An HTTP query first, so the ring has at least one trace to render.
  std::string served = Fetch(
      service_->port(),
      "/api/query?from=2021-01-01&to=2021-02-28&group=country");
  EXPECT_NE(served.find("200 OK"), std::string::npos);
  std::string trace = Fetch(service_->port(), "/api/trace");
  EXPECT_NE(trace.find("\"epoch\""), std::string::npos);
  std::string metrics = Fetch(service_->port(), "/metrics");
  EXPECT_NE(metrics.find("rased_index_epoch"), std::string::npos);
  EXPECT_NE(metrics.find("rased_index_retired_versions"), std::string::npos);
  EXPECT_NE(metrics.find("rased_index_publications_total"), std::string::npos);
}

// Readers issue continuously while a deliberately slow writer publishes 14
// days, and observe zero stalls. "Latency" here is the system's
// deterministic latency model: the wall clock is a FakeClock that only the
// writer advances (one simulated second per ingested day), so a reader
// that never waits for the writer completes every query with exactly the
// no-ingest baseline's device-model time and rows — any blocking on the
// write path would surface as nondeterministic extra latency or torn
// answers. Appends continue from wherever coverage currently ends.
TEST_F(ConcurrentQueriesTest, ReadersSeeNoStallsDuringSlowIngest) {
  constexpr int kReaders = 4;
  constexpr int kNewDays = 14;
  constexpr int64_t kSlowIngestMicros = 1000000;  // 1 s of fake time per day

  AnalysisQuery history;
  history.range = DateRange(Date::FromYmd(2021, 1, 1),
                            Date::FromYmd(2021, 2, 28));
  history.group_country = true;
  auto baseline = rased_->Query(history);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const uint64_t epoch_before = rased_->index()->epoch();

  // The suite's profiler reaper reads NowMicros() on its own thread and
  // may load the installed clock just before the test uninstalls it, so
  // the clock must outlive the test: it is never destroyed.
  static FakeClock* const fake_clock = new FakeClock();
  SetClockForTesting(fake_clock);

  std::atomic<int> warmup_queries{0};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> divergences{0};
  std::atomic<int> degraded{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 400 && !(done.load() && i > 4); ++i) {
        auto result = rased_->Query(history);
        if (!result.ok()) {
          ++failures;
        } else {
          if (!RowsEqual(result.value().rows, baseline.value().rows)) {
            ++divergences;
          }
          // Device-model latency is a pure function of (query, pinned
          // version); concurrent publications must not add a microsecond.
          if (result.value().stats.io.simulated_device_micros !=
              baseline.value().stats.io.simulated_device_micros) {
            ++degraded;
          }
        }
        if (i == 0) ++warmup_queries;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  // Let every reader land at least one pre-publication query, then
  // publish kNewDays versions, each "taking" one second of fake time.
  while (warmup_queries.load() < kReaders) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  CubeSchema schema = rased_->options().schema;
  Date next_day = rased_->index()->coverage().last.next();
  for (int day = 0; day < kNewDays; ++day) {
    fake_clock->Advance(kSlowIngestMicros / 2);
    DataCube cube(schema);
    cube.Add(0, 0, 0, 0, 1);
    Status s = rased_->IngestDayCube(next_day, cube);
    if (!s.ok()) ++failures;
    next_day = next_day.next();
    fake_clock->Advance(kSlowIngestMicros / 2);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  SetClockForTesting(nullptr);

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(divergences.load(), 0);
  EXPECT_EQ(degraded.load(), 0);
  // Every publication bumped the epoch; queries before the first swap saw
  // the old epoch (asserted per-query above via the pinned baseline
  // accounting), and a post-ingest query pins the newest version.
  auto after = rased_->Query(history);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().stats.epoch,
            epoch_before + static_cast<uint64_t>(kNewDays));
  EXPECT_TRUE(RowsEqual(after.value().rows, baseline.value().rows));
}

// WarmCache refills the (statically warmed) cache against the currently
// published version while readers keep querying: the warm pass holds only
// the write-side mutex, so readers never block on it and every answer
// stays bit-for-bit correct even mid-refill (page-validated probes just
// miss entries the warm pass has not restored yet).
TEST_F(ConcurrentQueriesTest, WarmCacheDoesNotBlockOrCorruptReaders) {
  constexpr int kReaders = 4;

  AnalysisQuery history;
  history.range = DateRange(Date::FromYmd(2021, 1, 1),
                            Date::FromYmd(2021, 2, 28));
  history.group_country = true;
  auto baseline = rased_->Query(history);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> divergences{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200 && !done.load(); ++i) {
        auto result = rased_->Query(history);
        if (!result.ok()) {
          ++failures;
        } else if (!RowsEqual(result.value().rows, baseline.value().rows)) {
          ++divergences;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }

  for (int i = 0; i < 6; ++i) {
    Status s = rased_->WarmCache();
    if (!s.ok()) ++failures;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(divergences.load(), 0);
}

}  // namespace
}  // namespace rased
