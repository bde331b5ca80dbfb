// The load generator: one event-loop thread driving at most `max_conns`
// loopback HTTP connections (the server closes each after one response).
// Open loop: operation i is due at start + i / rate and its latency runs
// from that due time, so a stall is charged to every request it delays
// (no coordinated omission). Closed loop: every connection sends its next
// request as soon as the previous answer arrives.
#ifndef DASHBENCH_LOADGEN_H_
#define DASHBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace dashbench {

struct LoadOptions {
  int port = 0;
  int max_conns = 4;
  /// Open-loop arrivals per second (ignored by ClosedLoop).
  double rate = 0;
  double seconds = 1;
  /// A request not answered within this is a failure.
  int64_t timeout_us = 10'000'000;
  /// Open loop: when set, arrivals also end once this becomes true.
  const std::atomic<bool>* stop = nullptr;
  /// Closed loop: the operations completed_per_s counts (all when unset).
  std::function<bool(uint64_t op)> counted;
};

struct OpResult {
  uint64_t op = 0;
  /// From the due time (open loop) or the send (closed loop) to the last
  /// byte; kFailed for a transport error, timeout, bad status or a failed
  /// answer check.
  double latency_ms = 0;
  int64_t done_us = 0;
};

struct LoadResult {
  std::vector<OpResult> ops;  // completion order
  /// Open loop: how late the loop picked each operation up after it fell
  /// due (the generator's own lag, not the server's).
  std::vector<double> late_ms;
  uint64_t failed = 0;
  /// Closed loop: counted operations completed inside the window per
  /// second.
  double completed_per_s = 0;
};

/// URL of operation `op` (called on the loop thread when it is sent).
using TargetFn = std::function<std::string(uint64_t op)>;
/// Validates an answer (called on the loop thread); false = failed.
using CheckFn =
    std::function<bool(uint64_t op, int status, std::string_view body)>;

LoadResult OpenLoop(const LoadOptions& options, const TargetFn& target,
                    const CheckFn& check);
LoadResult ClosedLoop(const LoadOptions& options, const TargetFn& target,
                      const CheckFn& check);

/// One blocking GET; status 0 on transport failure.
int HttpGet(int port, const std::string& target, std::string* body,
            int64_t timeout_us = 10'000'000);

}  // namespace dashbench

#endif  // DASHBENCH_LOADGEN_H_
