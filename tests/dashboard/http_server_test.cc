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

#include "util/random.h"

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

/// Sends `bytes` as they are, half-closes, and returns every byte the
/// server sends back before it closes (empty when it only closes). Send
/// and receive errors (a reset after an oversized request) end the
/// exchange early, never the test.
std::string SendRaw(int port, const std::string& bytes) {
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
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

// Robustness property, in the style of the XML fuzz suite: a seeded stream
// of malformed requests — truncated request lines, a missing CRLF, header
// blocks over 64 KiB, bad or absent methods and versions, NUL bytes,
// percent-escapes cut short, and pipelined pairs. Each gets a 4xx or a
// bare close (a pipelined pair one answer, then the close); none crashes a
// worker, and /healthz still answers afterwards.
TEST(HttpServerTest, MalformedRequestsGet4xxOrClose) {
  HttpServer server;
  server.Route("/healthz", [](const HttpRequest&, HttpResponse* resp) {
    resp->content_type = "text/plain";
    resp->body = "ok\n";
  });
  ASSERT_TRUE(server.Start(0, 2).ok());
  const std::string kHeaders = "\r\nHost: localhost\r\n\r\n";
  const std::string kValid = "GET /healthz HTTP/1.1" + kHeaders;

  Rng rng(25);
  constexpr int kRequests = 300;
  int refused = 0, pipelined = 0;
  for (int iter = 0; iter < kRequests; ++iter) {
    std::string request;
    bool pipeline = false;
    switch (rng.Uniform(9)) {
      case 0:  // truncated anywhere before the header block ends
        request = kValid.substr(0, rng.Uniform(kValid.size() - 1));
        break;
      case 1: {  // a bare LF in place of one CRLF
        request = kValid;
        std::vector<size_t> crlfs;
        for (size_t at = request.find("\r\n"); at != std::string::npos;
             at = request.find("\r\n", at + 1)) {
          crlfs.push_back(at);
        }
        request.erase(crlfs[rng.Uniform(crlfs.size())], 1);
        break;
      }
      case 2:  // a header block over the 64 KiB cap
        request = "GET /healthz HTTP/1.1\r\nX-Pad: " +
                  std::string((64 << 10) + rng.Uniform(8192), 'a') + kHeaders;
        break;
      case 3: {  // a bad or absent method
        static const char* const kMethods[] = {"", "BREW", "get", "G ET",
                                               "POST", "\x01GET"};
        request = std::string(kMethods[rng.Uniform(6)]) +
                  " /healthz HTTP/1.1" + kHeaders;
        break;
      }
      case 4: {  // a bad or absent version
        static const char* const kVersions[] = {
            "", "HTTP/2.0", "HTTP/1.1 x", "FTP/1.1", "HTTP/1", "http/1.1"};
        const std::string version = kVersions[rng.Uniform(6)];
        request = "GET /healthz" + (version.empty() ? "" : " " + version) +
                  kHeaders;
        break;
      }
      case 5: {  // a NUL somewhere in the request line
        request = kValid;
        request.insert(rng.Uniform(request.find("\r\n") + 1), 1, '\0');
        break;
      }
      case 6: {  // a percent-escape cut short in the path
        static const char* const kTargets[] = {"/healthz%", "/healthz%2",
                                               "/%", "/%2?x=1"};
        request = std::string("GET ") + kTargets[rng.Uniform(4)] +
                  " HTTP/1.1" + kHeaders;
        break;
      }
      case 7:  // two pipelined requests
        request = kValid + kValid;
        pipeline = true;
        break;
      case 8:  // an empty request line, or nothing at all
        request = rng.Uniform(2) == 0 ? "\r\n\r\n" : "";
        break;
    }
    const std::string response = SendRaw(server.port(), request);
    if (pipeline) {
      ++pipelined;
      // The first request is answered, the second meets the close.
      EXPECT_EQ(CountOf(response, "HTTP/1.1 "), 1u) << response;
      continue;
    }
    if (response.empty()) continue;  // closed without an answer
    ++refused;
    EXPECT_EQ(response.rfind("HTTP/1.1 4", 0), 0u)
        << "iteration " << iter << ": " << request.substr(0, 80) << " -> "
        << response.substr(0, response.find("\r\n"));
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(pipelined, 0);

  // Every connection was handled to the end, and the workers still serve.
  const std::string health = Fetch(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(server.requests_served(), static_cast<uint64_t>(kRequests + 1));
  server.Stop();
}

}  // namespace
}  // namespace rased
