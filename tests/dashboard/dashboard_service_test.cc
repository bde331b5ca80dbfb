#include "dashboard/dashboard_service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.h"

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

class DashboardServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new TempDir("dashboard-test");
    rased_ =
        testing_helpers::MakePopulatedRased(
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

TempDir* DashboardServiceTest::dir_ = nullptr;
Rased* DashboardServiceTest::rased_ = nullptr;
DashboardService* DashboardServiceTest::service_ = nullptr;

TEST_F(DashboardServiceTest, IndexPageServed) {
  std::string response = Fetch(service_->port(), "/");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("RASED"), std::string::npos);
  EXPECT_NE(response.find("text/html"), std::string::npos);
}

TEST_F(DashboardServiceTest, QueryEndpointReturnsJson) {
  std::string response = Fetch(
      service_->port(),
      "/api/query?from=2021-01-01&to=2021-01-31&group=country");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"rows\""), std::string::npos);
  EXPECT_NE(response.find("\"count\""), std::string::npos);
  EXPECT_NE(response.find("\"stats\""), std::string::npos);
}

TEST_F(DashboardServiceTest, QueryWithCountryFilter) {
  std::string response =
      Fetch(service_->port(),
            "/api/query?countries=Germany&group=country&format=json");
  EXPECT_NE(response.find("\"country\":\"Germany\""), std::string::npos);
  // Only one row: Germany itself.
  EXPECT_EQ(response.find("\"country\":\"France\""), std::string::npos);
}

TEST_F(DashboardServiceTest, TableAndBarFormats) {
  std::string table = Fetch(
      service_->port(), "/api/query?group=country&format=table");
  EXPECT_NE(table.find("text/plain"), std::string::npos);
  EXPECT_NE(table.find("count"), std::string::npos);

  std::string bar =
      Fetch(service_->port(), "/api/query?group=country&format=bar");
  EXPECT_NE(bar.find('#'), std::string::npos);
}

TEST_F(DashboardServiceTest, UnknownFormatIs400) {
  std::string response =
      Fetch(service_->port(), "/api/query?group=country&format=nope");
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos) << response;
  EXPECT_NE(
      response.find("{\"error\":\"InvalidArgument: unknown format 'nope'\"}"),
      std::string::npos)
      << response;
}

TEST_F(DashboardServiceTest, TimeseriesFormat) {
  std::string response = Fetch(
      service_->port(),
      "/api/query?from=2021-01-01&to=2021-02-28&countries=Germany,France"
      "&group=country,date&percentage=1&format=timeseries");
  EXPECT_NE(response.find("Germany"), std::string::npos);
  EXPECT_NE(response.find("France"), std::string::npos);
}

TEST_F(DashboardServiceTest, SqlEndpointRunsPaperQueries) {
  // URL-encoded: SELECT Country, COUNT(*) FROM UpdateList WHERE Date
  // BETWEEN 2021-01-01 AND 2021-02-28 GROUP BY Country
  std::string response = Fetch(
      service_->port(),
      "/api/sql?q=SELECT%20Country,%20COUNT(*)%20FROM%20UpdateList%20WHERE"
      "%20Date%20BETWEEN%202021-01-01%20AND%202021-02-28%20GROUP%20BY"
      "%20Country&format=json");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"country\""), std::string::npos);
  EXPECT_NE(response.find("\"count\""), std::string::npos);
}

TEST_F(DashboardServiceTest, SqlEndpointRejectsBadSql) {
  std::string response =
      Fetch(service_->port(), "/api/sql?q=DROP%20TABLE%20UpdateList");
  EXPECT_NE(response.find("400"), std::string::npos);
  EXPECT_NE(Fetch(service_->port(), "/api/sql").find("400"),
            std::string::npos);
}

TEST_F(DashboardServiceTest, UnknownCountryIs400) {
  std::string response =
      Fetch(service_->port(), "/api/query?countries=Narnia");
  EXPECT_NE(response.find("400"), std::string::npos);
  EXPECT_NE(response.find("error"), std::string::npos);
}

TEST_F(DashboardServiceTest, BadDateIs400) {
  std::string response = Fetch(service_->port(), "/api/query?from=yesterday");
  EXPECT_NE(response.find("400"), std::string::npos);
}

// The year's digits overflow an int; truncated to 32 bits they would read
// as 2020.
TEST_F(DashboardServiceTest, WrappedYearIs400) {
  std::string response =
      Fetch(service_->port(), "/api/query?from=4294969316-06-15");
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos);
}

TEST_F(DashboardServiceTest, UnknownGroupDimensionIs400) {
  std::string response = Fetch(service_->port(), "/api/query?group=color");
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_F(DashboardServiceTest, ZonesEndpoint) {
  std::string response = Fetch(service_->port(), "/api/zones");
  EXPECT_NE(response.find("\"United States\""), std::string::npos);
  EXPECT_NE(response.find("\"continent\""), std::string::npos);
  EXPECT_NE(response.find("road_network_size"), std::string::npos);
}

TEST_F(DashboardServiceTest, StatsEndpoint) {
  std::string response = Fetch(service_->port(), "/api/stats");
  EXPECT_NE(response.find("\"daily_cubes\":59"), std::string::npos);
  EXPECT_NE(response.find("\"monthly_cubes\":2"), std::string::npos);
  EXPECT_NE(response.find("\"cache\""), std::string::npos);
}

TEST_F(DashboardServiceTest, SampleByChangeset) {
  // Grab any changeset id from the warehouse via a box sample.
  auto samples =
      rased_->SampleInBox(BoundingBox{-90, -180, 90, 180}, 1);
  ASSERT_TRUE(samples.ok());
  ASSERT_FALSE(samples.value().empty());
  uint64_t cs = samples.value()[0].changeset_id;
  std::string response = Fetch(service_->port(),
                               "/api/sample?changeset=" + std::to_string(cs));
  EXPECT_NE(response.find("\"samples\""), std::string::npos);
  EXPECT_NE(response.find(std::to_string(cs)), std::string::npos);
}

TEST_F(DashboardServiceTest, SampleByBox) {
  std::string response = Fetch(
      service_->port(),
      "/api/sample?min_lat=-90&min_lon=-180&max_lat=90&max_lon=180&n=5");
  EXPECT_NE(response.find("\"samples\""), std::string::npos);
  EXPECT_NE(response.find("\"lat\""), std::string::npos);
}

size_t CountSamples(const std::string& response) {
  size_t count = 0;
  for (size_t at = response.find("\"changeset\""); at != std::string::npos;
       at = response.find("\"changeset\"", at + 1)) {
    ++count;
  }
  return count;
}

TEST_F(DashboardServiceTest, SampleSizeIsClampedToMaximum) {
  auto all = rased_->Sample(SampleFilter{}, /*n=*/0);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all.value().size(), DashboardService::kMaxSampleRecords);
  const std::string world =
      "/api/sample?min_lat=-90&min_lon=-180&max_lat=90&max_lon=180";
  // n=0 used to return every record in the box.
  for (const char* n : {"&n=0", "&n=5000", "&n=18446744073709551615"}) {
    std::string response = Fetch(service_->port(), world + n);
    EXPECT_NE(response.find("200 OK"), std::string::npos) << n;
    EXPECT_EQ(CountSamples(response), DashboardService::kMaxSampleRecords)
        << n;
  }
  EXPECT_EQ(CountSamples(Fetch(service_->port(), world + "&n=7")), 7u);
  EXPECT_EQ(CountSamples(Fetch(service_->port(), world)), 100u);
}

TEST_F(DashboardServiceTest, SampleWithUnparsableSizeIs400) {
  const std::string world =
      "/api/sample?min_lat=-90&min_lon=-180&max_lat=90&max_lon=180";
  // An unparsable n used to fall back to 100 silently.
  for (const char* n : {"&n=abc", "&n=-1", "&n=", "&n=1.5"}) {
    std::string response = Fetch(service_->port(), world + n);
    EXPECT_NE(response.find("400"), std::string::npos) << n;
    EXPECT_EQ(CountSamples(response), 0u) << n;
  }
}

TEST_F(DashboardServiceTest, SampleWithoutParamsIs400) {
  std::string response = Fetch(service_->port(), "/api/sample");
  EXPECT_NE(response.find("400"), std::string::npos);
}

TEST_F(DashboardServiceTest, ConcurrentQueriesAreSerializedSafely) {
  // Several clients hammer /api/query at once; the service's mutex must
  // keep the shared Rased instance consistent and every response valid.
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([this, &ok] {
      for (int i = 0; i < 5; ++i) {
        std::string response = Fetch(
            service_->port(),
            "/api/query?from=2021-01-01&to=2021-02-28&group=country");
        if (response.find("\"rows\"") != std::string::npos) ok.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), 20);
}

TEST_F(DashboardServiceTest, ParseQueryParamsDirectly) {
  HttpRequest request;
  request.params["from"] = "2021-01-05";
  request.params["to"] = "2021-01-20";
  request.params["countries"] = "Germany, France";
  request.params["element_types"] = "way,node";
  request.params["update_types"] = "new,geometry";
  request.params["group"] = "country,update_type";
  auto query = service_->ParseQueryParams(request);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query.value().countries.size(), 2u);
  EXPECT_EQ(query.value().element_types.size(), 2u);
  EXPECT_EQ(query.value().update_types.size(), 2u);
  EXPECT_TRUE(query.value().group_country);
  EXPECT_TRUE(query.value().group_update_type);
  EXPECT_FALSE(query.value().group_date);
  EXPECT_EQ(query.value().range.num_days(), 16);
}

}  // namespace
}  // namespace rased
