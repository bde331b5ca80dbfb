// End-to-end coverage of the observability surface: /metrics renders valid
// Prometheus text with every expected family, /api/trace exposes the span
// breakdown, unknown methods get a 405, and device-model metrics are
// bit-identical between a serial and an 8-way concurrent run of the same
// workload.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dashboard/dashboard_service.h"
#include "test_helpers.h"

namespace rased {
namespace {

std::string FetchRaw(int port, const std::string& raw_request) {
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
  ::send(fd, raw_request.data(), raw_request.size(), 0);
  std::string response;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Fetch(int port, const std::string& target) {
  return FetchRaw(port,
                  "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// The unsigned value that follows `"key":` at or after `from` in `json`.
uint64_t JsonUint(const std::string& json, const std::string& key,
                  size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle, from);
  EXPECT_NE(at, std::string::npos) << "missing key " << key;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + needle.size()));
}

// Minimal Prometheus text-format check: every line is a comment
// (# HELP/# TYPE) or `name{labels} value` with a numeric value.
bool ParsesAsPrometheusText(const std::string& body, std::string* error) {
  size_t start = 0;
  int samples = 0;
  while (start < body.size()) {
    size_t end = body.find('\n', start);
    if (end == std::string::npos) {
      *error = "body does not end with a newline";
      return false;
    }
    std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
        *error = "bad comment line: " + line;
        return false;
      }
      continue;
    }
    size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      *error = "no value on line: " + line;
      return false;
    }
    std::string series = line.substr(0, space);
    std::string value = line.substr(space + 1);
    for (size_t i = 0; i < value.size(); ++i) {
      char c = value[i];
      if (!(std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
            c == '+' || c == '.' || c == 'e' || c == 'I' || c == 'n' ||
            c == 'f')) {
        *error = "non-numeric value on line: " + line;
        return false;
      }
    }
    char first = series[0];
    if (!(std::isalpha(static_cast<unsigned char>(first)) || first == '_')) {
      *error = "bad series name on line: " + line;
      return false;
    }
    size_t brace = series.find('{');
    if (brace != std::string::npos && series.back() != '}') {
      *error = "unbalanced labels on line: " + line;
      return false;
    }
    ++samples;
  }
  if (samples == 0) {
    *error = "no samples in exposition";
    return false;
  }
  return true;
}

class DashboardMetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("dashboard-metrics-test");
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

TempDir* DashboardMetricsTest::dir_ = nullptr;
Rased* DashboardMetricsTest::rased_ = nullptr;
DashboardService* DashboardMetricsTest::service_ = nullptr;

TEST_F(DashboardMetricsTest, MetricsEndpointServesPrometheusText) {
  // Drive one query through first so the executor series carry traffic.
  ASSERT_NE(Fetch(service_->port(), "/api/query?group=country")
                .find("200 OK"),
            std::string::npos);

  std::string response = Fetch(service_->port(), "/metrics");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);

  std::string body = Body(response);
  std::string error;
  EXPECT_TRUE(ParsesAsPrometheusText(body, &error)) << error;

  // Every layer of the serving path must be represented.
  for (const char* family :
       {"rased_pager_read_ops_total", "rased_pager_device_micros_total",
        "rased_cache_hits_total", "rased_cache_misses_total",
        "rased_cache_resident_cubes", "rased_index_cubes",
        "rased_index_cube_reads_total", "rased_queries_total",
        "rased_query_cpu_micros_bucket", "rased_query_device_micros_bucket",
        "rased_ingest_records_total", "rased_traces_recorded_total",
        "rased_http_requests_total", "rased_http_request_micros_bucket",
        "rased_http_responses_total",
        "rased_http_malformed_requests_total"}) {
    EXPECT_NE(body.find(family), std::string::npos)
        << "missing family: " << family;
  }
  // Per-endpoint and per-file labels.
  EXPECT_NE(body.find("rased_http_requests_total{endpoint=\"/metrics\"}"),
            std::string::npos);
  EXPECT_NE(body.find("{file=\"index\"}"), std::string::npos);
  EXPECT_NE(body.find("rased_index_cubes{level=\"daily\"} 59"),
            std::string::npos);
}

TEST_F(DashboardMetricsTest, TraceEndpointReturnsSpans) {
  ASSERT_NE(Fetch(service_->port(),
                  "/api/query?from=2021-01-01&to=2021-01-31&group=country")
                .find("200 OK"),
            std::string::npos);

  std::string response = Fetch(service_->port(), "/api/trace");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  std::string body = Body(response);
  EXPECT_NE(body.find("\"traces\""), std::string::npos);
  EXPECT_NE(body.find("\"total_recorded\""), std::string::npos);
  for (const char* span :
       {"\"plan\"", "\"cache_probe\"", "\"fetch\"", "\"aggregate\"",
        "\"render\""}) {
    EXPECT_NE(body.find(span), std::string::npos) << "missing span " << span;
  }
  EXPECT_NE(body.find("\"wall_micros\""), std::string::npos);
  EXPECT_NE(body.find("\"device_micros\""), std::string::npos);
  EXPECT_NE(body.find("\"cubes_from_cache\""), std::string::npos);
}

// The newest /api/trace entry carries the answered query's own stats and
// the catalog epoch it was pinned to.
TEST_F(DashboardMetricsTest, TraceEntryMatchesQueryStatsAndEpoch) {
  const std::string query = Fetch(
      service_->port(), "/api/query?from=2021-01-01&to=2021-02-28&group=date");
  ASSERT_NE(query.find("200 OK"), std::string::npos);
  const std::string answer = Body(query);
  const size_t stats = answer.find("\"stats\":");
  ASSERT_NE(stats, std::string::npos) << answer;

  const std::string traces = Body(Fetch(service_->port(), "/api/trace"));
  const size_t newest = traces.rfind("{\"id\":");
  ASSERT_NE(newest, std::string::npos) << traces;
  for (const char* key : {"cubes_total", "cubes_from_cache", "page_reads"}) {
    EXPECT_EQ(JsonUint(traces, key, newest), JsonUint(answer, key, stats))
        << key;
  }
  EXPECT_GT(JsonUint(traces, "cubes_total", newest), 0u);

  const std::string metrics = Body(Fetch(service_->port(), "/metrics"));
  const std::string gauge = "\nrased_index_epoch ";
  const size_t line = metrics.find(gauge);
  ASSERT_NE(line, std::string::npos);
  EXPECT_EQ(JsonUint(traces, "epoch", newest),
            std::stoull(metrics.substr(line + gauge.size())));
}

TEST_F(DashboardMetricsTest, NonGetOnKnownPathIs405AndCounted) {
  Counter* responses_4xx = rased_->metrics()->GetCounter(
      "rased_http_responses_total", "",
      {{"endpoint", "/api/stats"}, {"class", "4xx"}});
  uint64_t before = responses_4xx->value();

  std::string response = FetchRaw(
      service_->port(),
      "POST /api/stats HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(response.find("405 Method Not Allowed"), std::string::npos);
  EXPECT_EQ(responses_4xx->value(), before + 1);

  // Unknown paths keep their 404 semantics regardless of method.
  std::string missing = FetchRaw(
      service_->port(), "POST /nope HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
}

TEST_F(DashboardMetricsTest, MalformedRequestLineIsCounted) {
  Counter* malformed = rased_->metrics()->GetCounter(
      "rased_http_malformed_requests_total", "");
  uint64_t before = malformed->value();
  std::string response = FetchRaw(service_->port(), "garbage\r\n\r\n");
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos);
  EXPECT_EQ(malformed->value(), before + 1);
}

// The determinism contract, asserted end to end: device-model metrics are a
// pure function of the workload, so running the same query list serially on
// one instance and 8-way concurrently on an identically built instance must
// leave the registries with bit-identical device-model deltas.
TEST(DashboardMetricsDeterminismTest, DeviceMetricsMatchSerialRunExactly) {
  TempDir dir("metrics-determinism-test");
  // A 4 KiB cache budget keeps most of the (compressed) workload on disk
  // so the device model is actually exercised below.
  constexpr uint64_t kTinyBudget = 4096;
  std::unique_ptr<Rased> serial = testing_helpers::MakePopulatedRased(
      env::JoinPath(dir.path(), "serial"), Date::FromYmd(2021, 1, 1),
      Date::FromYmd(2021, 2, 28), 40.0, kTinyBudget);
  std::unique_ptr<Rased> concurrent = testing_helpers::MakePopulatedRased(
      env::JoinPath(dir.path(), "concurrent"), Date::FromYmd(2021, 1, 1),
      Date::FromYmd(2021, 2, 28), 40.0, kTinyBudget);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(concurrent, nullptr);

  std::vector<AnalysisQuery> queries;
  for (int m = 1; m <= 2; ++m) {
    for (int day = 1; day <= 22; day += 3) {
      AnalysisQuery q;
      q.range = DateRange(Date::FromYmd(2021, m, day),
                          Date::FromYmd(2021, m, day + 5));
      q.group_country = true;
      queries.push_back(q);
    }
  }

  struct DeviceCounters {
    std::vector<Counter*> counters;
    Histogram* device_histogram;

    explicit DeviceCounters(MetricsRegistry* metrics) {
      const MetricLabels index_file{{"file", "index"}};
      counters = {
          metrics->GetCounter("rased_pager_page_reads_total", "", index_file),
          metrics->GetCounter("rased_pager_bytes_read_total", "", index_file),
          metrics->GetCounter("rased_pager_read_ops_total", "", index_file),
          metrics->GetCounter("rased_pager_coalesced_pages_total", "",
                              index_file),
          metrics->GetCounter("rased_pager_device_micros_total", "",
                              index_file),
          metrics->GetCounter("rased_cache_hits_total", ""),
          metrics->GetCounter("rased_cache_misses_total", ""),
          metrics->GetCounter("rased_index_cube_reads_total", ""),
          metrics->GetCounter("rased_queries_total", ""),
          metrics->GetCounter("rased_query_cubes_scanned_total", ""),
      };
      device_histogram =
          metrics->GetHistogram("rased_query_device_micros", "");
    }

    std::vector<uint64_t> Values() const {
      std::vector<uint64_t> values;
      for (const Counter* c : counters) values.push_back(c->value());
      for (int i = 0; i <= device_histogram->num_finite_buckets(); ++i) {
        values.push_back(device_histogram->bucket_count(i));
      }
      values.push_back(device_histogram->count());
      values.push_back(static_cast<uint64_t>(device_histogram->sum()));
      return values;
    }
  };

  DeviceCounters serial_handles(serial->metrics());
  DeviceCounters concurrent_handles(concurrent->metrics());
  std::vector<uint64_t> serial_before = serial_handles.Values();
  std::vector<uint64_t> concurrent_before = concurrent_handles.Values();

  // Serial run: the reference accounting.
  for (const AnalysisQuery& q : queries) {
    auto result = serial->Query(q);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  // Concurrent run: same workload, partitioned over 8 threads so every
  // query executes exactly once in total.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < queries.size();
           i += kThreads) {
        if (!concurrent->Query(queries[i]).ok()) ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  std::vector<uint64_t> serial_after = serial_handles.Values();
  std::vector<uint64_t> concurrent_after = concurrent_handles.Values();
  ASSERT_EQ(serial_after.size(), concurrent_after.size());
  for (size_t i = 0; i < serial_after.size(); ++i) {
    EXPECT_EQ(serial_after[i] - serial_before[i],
              concurrent_after[i] - concurrent_before[i])
        << "device-model metric #" << i
        << " diverged between serial and 8-way runs";
  }
  // The workload actually exercised the device model.
  EXPECT_GT(serial_after.back(), serial_before.back());
}

}  // namespace
}  // namespace rased
