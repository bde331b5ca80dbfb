#include "dashboard/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rased {
namespace {

/// Minimal test client: one request, returns the raw response — every
/// byte received before the server closes the socket.
std::string Fetch(int port, const std::string& target,
                  const std::string& method = "GET") {
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
      method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(UrlDecodeTest, DecodesPercentAndPlus) {
  EXPECT_EQ(HttpServer::UrlDecode("a%20b"), "a b");
  EXPECT_EQ(HttpServer::UrlDecode("a+b"), "a b");
  EXPECT_EQ(HttpServer::UrlDecode("%2Fpath%3D"), "/path=");
  EXPECT_EQ(HttpServer::UrlDecode("plain"), "plain");
  // Malformed escapes pass through.
  EXPECT_EQ(HttpServer::UrlDecode("100%"), "100%");
  EXPECT_EQ(HttpServer::UrlDecode("%zz"), "%zz");
}

TEST(ParseQueryTest, SplitsPairs) {
  auto params = HttpServer::ParseQuery("a=1&b=two%20words&c=");
  EXPECT_EQ(params.size(), 3u);
  EXPECT_EQ(params["a"], "1");
  EXPECT_EQ(params["b"], "two words");
  EXPECT_EQ(params["c"], "");
}

TEST(ParseQueryTest, BareKeyAndEmpty) {
  auto params = HttpServer::ParseQuery("flag&x=1");
  EXPECT_EQ(params.size(), 2u);
  EXPECT_EQ(params.count("flag"), 1u);
  EXPECT_TRUE(HttpServer::ParseQuery("").empty());
}

TEST(HttpServerTest, ServesRoutedPath) {
  HttpServer server;
  server.Route("/hello", [](const HttpRequest& req, HttpResponse* resp) {
    resp->content_type = "text/plain";
    resp->body = "hi " + req.Param("name");
  });
  ASSERT_TRUE(server.Start(0).ok());
  ASSERT_GT(server.port(), 0);

  std::string response = Fetch(server.port(), "/hello?name=rased");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("hi rased"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, UnknownPathIs404) {
  HttpServer server;
  server.Route("/", [](const HttpRequest&, HttpResponse* resp) {
    resp->body = "{}";
  });
  ASSERT_TRUE(server.Start(0).ok());
  std::string response = Fetch(server.port(), "/nope");
  EXPECT_NE(response.find("404"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, HandlerControlsStatus) {
  HttpServer server;
  server.Route("/bad", [](const HttpRequest&, HttpResponse* resp) {
    resp->status = 400;
    resp->body = "nope";
  });
  ASSERT_TRUE(server.Start(0).ok());
  std::string response = Fetch(server.port(), "/bad");
  EXPECT_NE(response.find("400"), std::string::npos);
  server.Stop();
}

TEST(HttpServerTest, HeadSendsGetHeadersWithoutBody) {
  HttpServer server;
  server.Route("/healthz", [](const HttpRequest&, HttpResponse* resp) {
    resp->content_type = "text/plain";
    resp->body = "ok\n";
  });
  ASSERT_TRUE(server.Start(0).ok());
  const std::string get = Fetch(server.port(), "/healthz");
  const std::string head = Fetch(server.port(), "/healthz", "HEAD");
  server.Stop();

  const size_t get_end = get.find("\r\n\r\n");
  const size_t head_end = head.find("\r\n\r\n");
  ASSERT_NE(get_end, std::string::npos);
  ASSERT_NE(head_end, std::string::npos);
  EXPECT_EQ(head.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << head;
  // The Content-Length GET would send, non-zero...
  EXPECT_NE(head.find("Content-Length: 3\r\n"), std::string::npos) << head;
  EXPECT_EQ(get.substr(get_end + 4), "ok\n");
  // ...and not one body byte before the socket closes.
  EXPECT_EQ(head.size(), head_end + 4) << head;
}

TEST(HttpServerTest, ServesMultipleSequentialRequests) {
  HttpServer server;
  int hits = 0;
  server.Route("/count", [&hits](const HttpRequest&, HttpResponse* resp) {
    resp->body = std::to_string(++hits);
  });
  ASSERT_TRUE(server.Start(0).ok());
  for (int i = 1; i <= 5; ++i) {
    std::string response = Fetch(server.port(), "/count");
    EXPECT_NE(response.find(std::to_string(i)), std::string::npos);
  }
  server.Stop();
}

TEST(HttpServerTest, ConcurrentClientsAreAllServed) {
  HttpServer server;
  std::atomic<int> handled{0};
  server.Route("/work", [&handled](const HttpRequest&, HttpResponse* resp) {
    resp->body = std::to_string(handled.fetch_add(1));
  });
  ASSERT_TRUE(server.Start(0, /*num_threads=*/4).ok());

  constexpr int kClients = 6;
  constexpr int kRequestsEach = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &ok] {
      for (int i = 0; i < kRequestsEach; ++i) {
        std::string response = Fetch(server.port(), "/work");
        if (response.find("200 OK") != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  EXPECT_EQ(ok.load(), kClients * kRequestsEach);
  EXPECT_EQ(handled.load(), kClients * kRequestsEach);
}

TEST(HttpServerTest, StopIsIdempotent) {
  HttpServer server;
  server.Route("/", [](const HttpRequest&, HttpResponse* resp) {
    resp->body = "x";
  });
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  server.Stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace rased
