#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <ctime>
#include <deque>

#include "helpers.h"
#include "util/clock.h"

namespace dashbench {

using rased::NowMicros;

namespace {

// After the schedule ends, in-flight and queued requests get this long to
// finish before they count as failed.
constexpr int64_t kDrainUs = 15'000'000;

int Connect(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Splits a complete response (the server closed the connection) into
// status and body; status 0 if malformed or truncated.
int ParseResponse(std::string_view raw, std::string_view* body) {
  if (raw.size() < 12 || raw.substr(0, 9) != "HTTP/1.1 ") return 0;
  int status = std::atoi(std::string(raw.substr(9, 3)).c_str());
  size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return 0;
  std::string_view head = raw.substr(0, head_end);
  *body = raw.substr(head_end + 4);
  size_t cl = head.find("Content-Length: ");
  if (cl != std::string_view::npos) {
    size_t length = std::strtoull(
        std::string(head.substr(cl + 16, 20)).c_str(), nullptr, 10);
    if (length != body->size()) return 0;
  }
  return status;
}

struct Conn {
  int fd = -1;
  uint64_t op = 0;
  int64_t origin_us = 0;  // latency is measured from here
  std::string out;
  size_t sent = 0;
  std::string in;
};

class Engine {
 public:
  Engine(const LoadOptions& options, const TargetFn& target,
         const CheckFn& check)
      : options_(options), target_(target), check_(check) {}

  void Start(uint64_t op, int64_t origin_us) {
    Conn c;
    c.op = op;
    c.origin_us = origin_us;
    c.out = "GET " + target_(op) +
            " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    c.fd = Connect(options_.port);
    if (c.fd < 0) {
      Finish(c, 0, {});
      return;
    }
    conns_.push_back(std::move(c));
  }

  size_t active() const { return conns_.size(); }

  /// Waits up to `wait_us` for socket events and completes what is ready.
  void Poll(int64_t wait_us) {
    std::vector<pollfd> fds(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = conns_[i].sent < conns_[i].out.size() ? POLLOUT : POLLIN;
    }
    wait_us = std::max<int64_t>(0, wait_us);
    timespec ts{static_cast<time_t>(wait_us / 1'000'000),
                static_cast<long>((wait_us % 1'000'000) * 1000)};
    int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    const int64_t now = NowMicros();
    std::vector<Conn> still;
    still.reserve(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      bool done = false;
      bool failed = false;
      if (n > 0 && fds[i].revents != 0) {
        if (c.sent < c.out.size()) {
          ssize_t w = ::send(c.fd, c.out.data() + c.sent,
                             c.out.size() - c.sent, MSG_NOSIGNAL);
          if (w > 0) {
            c.sent += static_cast<size_t>(w);
          } else if (w < 0 && errno != EAGAIN && errno != EINTR) {
            failed = true;
          }
        } else {
          char buf[16384];
          for (;;) {
            ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
            if (r > 0) {
              c.in.append(buf, static_cast<size_t>(r));
              continue;
            }
            if (r == 0) done = true;
            if (r < 0 && errno != EAGAIN && errno != EINTR) failed = true;
            break;
          }
        }
      }
      if (!done && !failed && now - c.origin_us > options_.timeout_us) {
        failed = true;
      }
      if (done || failed) {
        ::close(c.fd);
        std::string_view body;
        int status = failed ? 0 : ParseResponse(c.in, &body);
        Finish(c, status, body);
      } else {
        still.push_back(std::move(c));
      }
    }
    conns_ = std::move(still);
  }

  /// Fails every open connection (the run is over).
  void Abandon() {
    for (Conn& c : conns_) {
      ::close(c.fd);
      Finish(c, 0, {});
    }
    conns_.clear();
  }

  void Fail(uint64_t op) {
    Conn c;
    c.op = op;
    Finish(c, 0, {});
  }

  LoadResult& result() { return result_; }

 private:
  void Finish(const Conn& c, int status, std::string_view body) {
    const int64_t now = NowMicros();
    bool ok = status != 0 && check_(c.op, status, body);
    OpResult r;
    r.op = c.op;
    r.done_us = now;
    r.latency_ms =
        ok ? static_cast<double>(now - c.origin_us) / 1000.0 : kFailed;
    if (!ok) ++result_.failed;
    result_.ops.push_back(r);
  }

  const LoadOptions& options_;
  const TargetFn& target_;
  const CheckFn& check_;
  std::vector<Conn> conns_;
  LoadResult result_;
};

void SleepMicros(int64_t us) {
  us = std::max<int64_t>(0, us);
  timespec ts{static_cast<time_t>(us / 1'000'000),
              static_cast<long>((us % 1'000'000) * 1000)};
  ::nanosleep(&ts, nullptr);
}

}  // namespace

LoadResult OpenLoop(const LoadOptions& options, const TargetFn& target,
                    const CheckFn& check) {
  Engine engine(options, target, check);
  const int64_t start = NowMicros() + 1000;
  int64_t end = start + static_cast<int64_t>(options.seconds * 1e6);
  Schedule schedule(start, options.rate);
  std::deque<std::pair<uint64_t, int64_t>> queued;  // (op, due)
  uint64_t next = 0;
  for (;;) {
    const int64_t now = NowMicros();
    if (options.stop != nullptr && now < end && options.stop->load()) end = now;
    const uint64_t due_count = schedule.DueCount(now);
    while (next < due_count && schedule.DueMicros(next) < end) {
      int64_t due = schedule.DueMicros(next);
      engine.result().late_ms.push_back(static_cast<double>(now - due) /
                                        1000.0);
      queued.emplace_back(next++, due);
    }
    const bool schedule_over = schedule.DueMicros(next) >= end;
    // Requests wait for a free connection in due order; that wait is the
    // server's backlog and is charged to their latency.
    while (!queued.empty() &&
           engine.active() < static_cast<size_t>(options.max_conns)) {
      engine.Start(queued.front().first, queued.front().second);
      queued.pop_front();
    }
    if (schedule_over && queued.empty() && engine.active() == 0) break;
    if (schedule_over && now > end + kDrainUs) {
      engine.Abandon();
      for (const auto& entry : queued) engine.Fail(entry.first);
      break;
    }
    const int64_t wait = schedule_over ? 1000 : schedule.DueMicros(next) - now;
    if (engine.active() == 0) {
      SleepMicros(wait);  // nothing to watch until the next arrival
    } else {
      engine.Poll(std::min<int64_t>(wait, 1000));
    }
  }
  return std::move(engine.result());
}

LoadResult ClosedLoop(const LoadOptions& options, const TargetFn& target,
                      const CheckFn& check) {
  Engine engine(options, target, check);
  const int64_t start = NowMicros();
  const int64_t end = start + static_cast<int64_t>(options.seconds * 1e6);
  uint64_t next = 0;
  for (;;) {
    if (NowMicros() < end) {
      while (engine.active() < static_cast<size_t>(options.max_conns)) {
        engine.Start(next++, NowMicros());
      }
    } else if (engine.active() == 0) {
      break;
    }
    engine.Poll(1000);
  }
  LoadResult result = std::move(engine.result());
  uint64_t completed = 0;
  for (const OpResult& r : result.ops) {
    if (r.done_us <= end && r.latency_ms != kFailed &&
        (!options.counted || options.counted(r.op))) {
      ++completed;
    }
  }
  result.completed_per_s = static_cast<double>(completed) / options.seconds;
  return result;
}

int HttpGet(int port, const std::string& target, std::string* body,
            int64_t timeout_us) {
  LoadOptions options;
  options.port = port;
  options.max_conns = 1;
  options.timeout_us = timeout_us;
  int status = 0;
  TargetFn fn = [&](uint64_t) { return target; };
  CheckFn check = [&](uint64_t, int s, std::string_view b) {
    status = s;
    body->assign(b);
    return true;
  };
  Engine engine(options, fn, check);
  engine.Start(0, NowMicros());
  while (engine.active() > 0) engine.Poll(1000);
  return status;
}

}  // namespace dashbench
