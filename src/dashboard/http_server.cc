#include "dashboard/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "obs/profiler.h"
#include "obs/request_context.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/str_util.h"

namespace rased {

namespace {

/// Parses the header lines between the request line and the blank line
/// into lower-cased-name/trimmed-value pairs. Tolerant: malformed lines
/// are skipped (headers are advisory for this server).
std::map<std::string, std::string> ParseHeaderLines(
    const std::string& request, size_t headers_begin) {
  std::map<std::string, std::string> headers;
  size_t pos = headers_begin;
  while (pos < request.size()) {
    size_t eol = request.find("\r\n", pos);
    if (eol == std::string::npos || eol == pos) break;  // blank line = end
    std::string_view line(request.data() + pos, eol - pos);
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) continue;
    std::string name(line.substr(0, colon));
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.remove_prefix(1);
    }
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t' ||
                              value.back() == '\r')) {
      value.remove_suffix(1);
    }
    headers[name] = std::string(value);
  }
  return headers;
}

}  // namespace

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Route(const std::string& path, Handler handler) {
  RASED_CHECK(!running_.load()) << "Route() after Start()";
  MutexLock lock(&mu_);
  routes_[path] = std::move(handler);
}

Status HttpServer::Start(int port, int num_threads) {
  if (num_threads < 1) num_threads = 1;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int on = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError(StrFormat("bind(%d): %s", port,
                                     std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  {
    MutexLock lock(&mu_);
    InitMetricsLocked();
  }
  listen_fd_.store(fd);
  running_.store(true);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { AcceptLoop(); });
  }
  return Status::OK();
}

void HttpServer::InitMetricsLocked() {
  if (metrics_ == nullptr) return;
  malformed_counter_ =
      metrics_->GetCounter("rased_http_malformed_requests_total",
                           "Requests whose request line failed to parse");
  std::vector<std::string> endpoints;
  endpoints.reserve(routes_.size() + 1);
  for (const auto& [path, handler] : routes_) endpoints.push_back(path);
  // Requests for unregistered paths share one label value so arbitrary
  // client input never mints new series.
  endpoints.push_back("(unmatched)");
  for (const std::string& endpoint : endpoints) {
    EndpointMetrics em;
    MetricLabels labels{{"endpoint", endpoint}};
    // NOLINT-RASED(metric-in-loop): registration runs once per endpoint in
    em.requests = metrics_->GetCounter("rased_http_requests_total",
                                       "HTTP requests served", labels);
    // NOLINT-RASED(metric-in-loop): Start, before any worker serves traffic
    em.latency = metrics_->GetHistogram("rased_http_request_micros",
                                        "Request handling wall time "
                                        "(microseconds, excludes socket I/O)",
                                        HistogramOptions{}, labels);
    auto status_counter = [&](const char* status_class) {
      MetricLabels l = labels;
      l.emplace_back("class", status_class);
      // NOLINT-RASED(metric-in-loop): one-time registration per status class
      return metrics_->GetCounter("rased_http_responses_total",
                                  "HTTP responses by status class", l);
    };
    em.status_2xx = status_counter("2xx");
    em.status_4xx = status_counter("4xx");
    em.status_5xx = status_counter("5xx");
    endpoint_metrics_[endpoint] = em;
  }
}

void HttpServer::RecordRequestMetrics(const std::string& endpoint, int status,
                                      int64_t wall_micros) {
  if (metrics_ == nullptr) return;
  auto it = endpoint_metrics_.find(endpoint);
  if (it == endpoint_metrics_.end()) {
    it = endpoint_metrics_.find("(unmatched)");
    if (it == endpoint_metrics_.end()) return;  // no registry attached
  }
  const EndpointMetrics& em = it->second;
  em.requests->Increment();
  em.latency->Observe(wall_micros);
  Counter* status_counter = status >= 500   ? em.status_5xx
                            : status >= 400 ? em.status_4xx
                            : status >= 200 && status < 300 ? em.status_2xx
                                                            : nullptr;
  if (status_counter != nullptr) status_counter->Increment();
}

void HttpServer::Stop() {
  if (running_.exchange(false)) {
    // Shutting the listen socket down unblocks every accept(). The fd is
    // swapped out atomically first so no worker can observe a reused fd.
    int fd = listen_fd_.exchange(-1);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void HttpServer::AcceptLoop() {
  // HTTP workers are where queries burn CPU, so they are the threads the
  // continuous profiler samples (no-op while the profiler is stopped).
  ProfilerThreadScope profiler_scope("http-worker");
  // Several workers accept() on the same listening socket; the kernel
  // hands each incoming connection to exactly one of them.
  while (running_.load()) {
    int listen_fd = listen_fd_.load();
    if (listen_fd < 0) break;  // Stop() already retired the socket
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load()) break;
      if (errno == EINTR) continue;
      RASED_LOG(Warning) << "accept: " << std::strerror(errno);
      break;
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

std::string HttpServer::UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < text.size() &&
               std::isxdigit(static_cast<unsigned char>(text[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(text[i + 2]))) {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        return h - 'A' + 10;
      };
      out.push_back(static_cast<char>(hex(text[i + 1]) * 16 +
                                      hex(text[i + 2])));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::map<std::string, std::string> HttpServer::ParseQuery(
    std::string_view qs) {
  std::map<std::string, std::string> params;
  size_t start = 0;
  while (start <= qs.size()) {
    size_t amp = qs.find('&', start);
    if (amp == std::string_view::npos) amp = qs.size();
    std::string_view pair = qs.substr(start, amp - start);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        params[UrlDecode(pair)] = "";
      } else {
        params[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
      }
    }
    start = amp + 1;
  }
  return params;
}

void HttpServer::HandleConnection(int fd) {
  // Read until the end of the header block (requests here are GETs with no
  // body) or the header size cap.
  constexpr size_t kMaxHeaderBytes = 64 * 1024;
  std::string request;
  char buf[4096];
  size_t header_end = std::string::npos;
  while (header_end == std::string::npos && request.size() < kMaxHeaderBytes) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
    header_end = request.find("\r\n\r\n");
  }

  const int64_t t_start = NowMicros();
  HttpResponse response;
  HttpRequest parsed;
  bool matched = false;
  size_t line_end = request.find("\r\n");
  std::string first_line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  if (line_end != std::string::npos) {
    parsed.headers = ParseHeaderLines(request, line_end + 2);
  }

  // Adopt a well-formed inbound trace id (scatter-gather propagation) or
  // mint a fresh one; either way the id scopes every log line below, is
  // visible to handlers via CurrentTraceId(), and is echoed in the
  // response so clients and logs join on one key.
  uint64_t trace_id = 0;
  if (auto inbound = parsed.headers.find("x-rased-trace-id");
      inbound != parsed.headers.end()) {
    Result<uint64_t> parsed_id = ParseTraceId(inbound->second);
    if (parsed_id.ok()) trace_id = parsed_id.value();
  }
  if (trace_id == 0) trace_id = MintTraceId();
  ScopedRequestContext request_scope(trace_id);

  // Only a whole header block within the cap, led by "METHOD target
  // HTTP/1.x", is a request.
  std::vector<std::string> parts = Split(first_line, ' ');
  if (header_end == std::string::npos ||
      header_end + 4 > kMaxHeaderBytes || parts.size() != 3 ||
      (parts[2] != "HTTP/1.1" && parts[2] != "HTTP/1.0")) {
    response.status = 400;
    response.content_type = "text/plain";
    response.body = "bad request";
    if (malformed_counter_ != nullptr) malformed_counter_->Increment();
  } else {
    parsed.method = parts[0];
    std::string target = parts[1];
    size_t qmark = target.find('?');
    if (qmark != std::string::npos) {
      parsed.params = ParseQuery(std::string_view(target).substr(qmark + 1));
      parsed.path = target.substr(0, qmark);
    } else {
      parsed.path = target;
    }
    Handler* handler = nullptr;
    {
      MutexLock lock(&mu_);
      auto it = routes_.find(parsed.path);
      // Handlers are registered before Start and never removed, so the
      // pointer stays valid after the lock is dropped; the handler itself
      // must not run under mu_ or one slow query would serialize the pool.
      if (it != routes_.end()) handler = &it->second;
    }
    if (handler == nullptr) {
      response.status = 404;
      response.content_type = "text/plain";
      response.body = "not found: " + parsed.path;
    } else if (parsed.method != "GET" && parsed.method != "HEAD") {
      // The dashboard API is read-only; a known path with a writing verb
      // is a method error, not a missing resource.
      matched = true;
      response.status = 405;
      response.content_type = "text/plain";
      response.body = "method not allowed: " + parsed.method;
    } else {
      matched = true;
      (*handler)(parsed, &response);
    }
  }

  const int64_t wall_micros = NowMicros() - t_start;
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  RecordRequestMetrics(matched ? parsed.path : "(unmatched)", response.status,
                       wall_micros);
  // Access log, correlated with the response via the trace= prefix field.
  RASED_LOG(Debug) << parsed.method << " " << parsed.path << " -> "
                   << response.status << " (" << response.body.size()
                   << " bytes, " << wall_micros << "us)";
  const char* status_text = response.status == 200   ? "OK"
                            : response.status == 400 ? "Bad Request"
                            : response.status == 404 ? "Not Found"
                            : response.status == 405 ? "Method Not Allowed"
                            : response.status == 500 ? "Internal Server Error"
                            : response.status == 503 ? "Service Unavailable"
                                                     : "Error";
  std::string extra_headers;
  for (const auto& [name, value] : response.headers) {
    extra_headers += name + ": " + value + "\r\n";
  }
  extra_headers += "X-Rased-Trace-Id: " + FormatTraceId(trace_id) + "\r\n";
  std::string out = StrFormat(
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\n%sContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      response.status, status_text, response.content_type.c_str(),
      extra_headers.c_str(), response.body.size());
  // HEAD gets GET's headers, Content-Length included, but never the body.
  if (parsed.method != "HEAD") out += response.body;
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace rased
