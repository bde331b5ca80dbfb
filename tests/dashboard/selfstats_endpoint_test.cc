// End-to-end coverage of the self-monitoring surface: content types on
// /metrics and the JSON API, /healthz and /readyz semantics, deterministic
// /api/selfstats series under a FakeClock, and trace-id correlation across
// the response header, the trace ring, and captured log lines.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dashboard/dashboard_service.h"
#include "obs/request_context.h"
#include "test_helpers.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/str_util.h"

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

/// Value of `name` in the response's header block ("" when absent).
std::string HeaderValue(const std::string& response, const std::string& name) {
  const std::string needle = "\r\n" + name + ": ";
  const size_t at = response.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = response.find("\r\n", start);
  return end == std::string::npos ? "" : response.substr(start, end - start);
}

// Installs a FakeClock for the scope. The clock itself is never destroyed:
// the suite's profiler reaper reads NowMicros() on its own thread and may
// load the installed clock just before the scope uninstalls it.
class ScopedFakeClock {
 public:
  explicit ScopedFakeClock(int64_t start_micros) {
    static FakeClock* const clock = new FakeClock();
    clock_ = clock;
    clock_->Set(start_micros);
    SetClockForTesting(clock_);
  }
  ~ScopedFakeClock() { SetClockForTesting(nullptr); }

  FakeClock* clock() { return clock_; }

 private:
  FakeClock* clock_;
};

class DashboardSelfstatsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("dashboard-selfstats-test");
    rased_ = testing_helpers::MakePopulatedRased(
                 env::JoinPath(dir_->path(), "rased"))
                 .release();
    ASSERT_NE(rased_, nullptr);
    // The background sampler stays off: tests drive history()->SampleOnce()
    // under a FakeClock so every retained point is scripted.
    DashboardOptions options;
    options.start_sampler = false;
    service_ = new DashboardService(rased_, options);
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

TempDir* DashboardSelfstatsTest::dir_ = nullptr;
Rased* DashboardSelfstatsTest::rased_ = nullptr;
DashboardService* DashboardSelfstatsTest::service_ = nullptr;

TEST_F(DashboardSelfstatsTest, ContentTypeHeadersAreExact) {
  EXPECT_EQ(HeaderValue(Fetch(service_->port(), "/metrics"), "Content-Type"),
            "text/plain; version=0.0.4; charset=utf-8");
  for (const char* target :
       {"/api/stats", "/api/zones", "/api/trace", "/api/selfstats",
        "/readyz"}) {
    EXPECT_EQ(HeaderValue(Fetch(service_->port(), target), "Content-Type"),
              "application/json")
        << target;
  }
  EXPECT_EQ(HeaderValue(Fetch(service_->port(), "/healthz"), "Content-Type"),
            "text/plain; charset=utf-8");
  EXPECT_EQ(HeaderValue(Fetch(service_->port(), "/api/selfstats?format=tsv"),
                        "Content-Type"),
            "text/tab-separated-values; charset=utf-8");
}

TEST_F(DashboardSelfstatsTest, HealthzIsAlwaysOk) {
  const std::string response = Fetch(service_->port(), "/healthz");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(Body(response), "ok\n");
}

TEST_F(DashboardSelfstatsTest, ReadyzReportsReadyWithPerCheckDetail) {
  const std::string response = Fetch(service_->port(), "/readyz");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("\"ready\":true"), std::string::npos) << body;
  EXPECT_NE(body.find("\"catalog_published\":true"), std::string::npos);
  EXPECT_NE(body.find("\"ingest_not_wedged\":true"), std::string::npos);
  EXPECT_NE(body.find("\"slo_not_burning\":true"), std::string::npos);
  // The default objectives are evaluated (and idle: too few events).
  EXPECT_NE(body.find("\"objective\":\"query_latency_p99\""),
            std::string::npos);
  EXPECT_NE(body.find("\"objective\":\"http_error_rate\""),
            std::string::npos);
}

TEST_F(DashboardSelfstatsTest, SelfstatsSeriesAreDeterministicUnderFakeClock) {
  // Register the probe series before the first sample so the layout is
  // stable across both samples.
  Counter* probe = rased_->metrics()->GetCounter(
      "rased_selftest_probe_total", "scripted test counter");
  ScopedFakeClock fake(1000000000);  // t = 1000s

  probe->Increment(5);
  service_->history()->SampleOnce();
  fake.clock()->Advance(5000000);
  probe->Increment(7);
  service_->history()->SampleOnce();

  const std::string response = Fetch(
      service_->port(), "/api/selfstats?family=rased_selftest_probe_total");
  ASSERT_NE(response.find("200 OK"), std::string::npos);
  const std::string body = Body(response);
  EXPECT_NE(body.find("\"name\":\"rased_selftest_probe_total\""),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"type\":\"counter\""), std::string::npos);
  // Bit-for-bit: the scripted counter trajectory at the scripted stamps.
  EXPECT_NE(body.find("\"points\":[{\"t\":1000000000,\"v\":[5]},"
                      "{\"t\":1005000000,\"v\":[12]}]"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("\"samples_retained\":2"), std::string::npos);

  // The TSV rendering of the same history is equally deterministic.
  const std::string tsv = Body(
      Fetch(service_->port(),
            "/api/selfstats?family=rased_selftest_probe_total&format=tsv"));
  EXPECT_EQ(tsv.rfind("#selfstats now=", 0), 0u) << tsv;
  EXPECT_NE(tsv.find("rased_selftest_probe_total\t\tcounter\t\t"
                     "1000000000:5 1005000000:12\n"),
            std::string::npos)
      << tsv;

  // Family windowing: a window ending before the first sample keeps the
  // series but no points.
  const std::string windowed = Body(Fetch(
      service_->port(),
      "/api/selfstats?family=rased_selftest_probe_total&window=1"));
  EXPECT_NE(windowed.find("\"points\":[{\"t\":1005000000,\"v\":[12]}]"),
            std::string::npos)
      << windowed;

  EXPECT_NE(Fetch(service_->port(), "/api/selfstats?window=abc")
                .find("400 Bad Request"),
            std::string::npos);
  EXPECT_NE(Fetch(service_->port(), "/api/selfstats?format=yaml")
                .find("400 Bad Request"),
            std::string::npos);
}

TEST_F(DashboardSelfstatsTest, InboundTraceIdCorrelatesHeaderRingAndLogs) {
  SetLogLevel(LogLevel::kDebug);
  ::testing::internal::CaptureStderr();
  const std::string response = FetchRaw(
      service_->port(),
      "GET /api/query?group=country HTTP/1.1\r\nHost: localhost\r\n"
      "X-Rased-Trace-Id: 00000000deadbeef\r\n\r\n");
  const std::string log = ::testing::internal::GetCapturedStderr();
  SetLogLevel(LogLevel::kInfo);

  ASSERT_NE(response.find("200 OK"), std::string::npos);
  // 1. The response echoes the adopted id.
  EXPECT_EQ(HeaderValue(response, "X-Rased-Trace-Id"), "00000000deadbeef");
  // 2. The captured access log carries the same id in its line prefix.
  EXPECT_NE(log.find("trace=00000000deadbeef"), std::string::npos) << log;
  // 3. The trace ring entry for the query carries the same id.
  const std::string traces = Body(Fetch(service_->port(), "/api/trace"));
  EXPECT_NE(traces.find("\"trace_id\":\"00000000deadbeef\""),
            std::string::npos);
}

TEST_F(DashboardSelfstatsTest, MintedTraceIdWhenHeaderAbsentOrInvalid) {
  const std::string response = Fetch(service_->port(), "/healthz");
  const std::string minted = HeaderValue(response, "X-Rased-Trace-Id");
  ASSERT_EQ(minted.size(), 16u) << response;
  Result<uint64_t> parsed = ParseTraceId(minted);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed.value(), 0u);

  // A malformed inbound id is replaced by a freshly minted one.
  const std::string replaced = HeaderValue(
      FetchRaw(service_->port(),
               "GET /healthz HTTP/1.1\r\nHost: localhost\r\n"
               "X-Rased-Trace-Id: not-hex\r\n\r\n"),
      "X-Rased-Trace-Id");
  EXPECT_EQ(replaced.size(), 16u);
  EXPECT_TRUE(ParseTraceId(replaced).ok());

  // Two requests never share a minted id.
  const std::string other = HeaderValue(Fetch(service_->port(), "/healthz"),
                                        "X-Rased-Trace-Id");
  EXPECT_NE(other, minted);
}

}  // namespace
}  // namespace rased
