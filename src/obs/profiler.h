#ifndef RASED_OBS_PROFILER_H_
#define RASED_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "util/result.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace rased {

namespace profiler_internal {
/// Per-thread sampling state (ring, timer, stack bounds). Defined in
/// profiler.cc; opaque to everyone but the profiler and its handler.
struct ThreadEntry;
}  // namespace profiler_internal

/// Knobs for the always-on sampling CPU profiler (DESIGN.md section 13).
struct ProfilerOptions {
  /// Samples per second of CPU time, per registered thread. 99 (not 100)
  /// so sampling does not phase-lock with 10ms-period work.
  int sample_hz = 99;

  /// Frames kept per sample (deeper stacks are truncated at the root
  /// end). Clamped to the compile-time slot capacity (64).
  int max_stack_depth = 48;

  /// Pending raw samples per thread between reaper drains. At 99 Hz and
  /// the default reap interval only a handful are ever in flight; the
  /// headroom absorbs reaper scheduling stalls without dropping.
  size_t ring_slots = 256;

  /// Width of one always-on aggregation window.
  int64_t window_micros = 10 * 1000 * 1000;

  /// Byte budget for retained windows; oldest windows are evicted first.
  size_t window_byte_budget = 2 * 1024 * 1024;

  /// How often the background reaper drains the per-thread rings.
  int64_t reap_interval_micros = 100 * 1000;

  /// Registry for rased_profiler_* series (nullptr: unregistered).
  MetricsRegistry* metrics = nullptr;
};

/// One aggregated profile: folded stacks ("root;frame;leaf") to sample
/// counts, plus drop accounting for the covered interval.
struct ProfileWindow {
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  uint64_t samples = 0;
  uint64_t dropped = 0;
  std::map<std::string, uint64_t> folded;

  /// Approximate heap footprint, the unit of the ring's byte budget.
  size_t ResidentBytes() const;
};

/// Byte-budgeted ring of retained profile windows. Pure data structure
/// (no clock, no signals) so eviction and budget accounting are testable
/// with FakeClock-stamped windows. Thread-safe.
class ProfileWindowRing {
 public:
  explicit ProfileWindowRing(size_t byte_budget);

  /// Appends a window, then evicts oldest-first until the resident bytes
  /// fit the budget (the newest window always stays, even oversized).
  void Add(ProfileWindow window);

  /// Merges every retained window overlapping [from_micros, +inf) into
  /// one. With from_micros = INT64_MIN, merges everything retained.
  ProfileWindow Merge(int64_t from_micros) const;

  size_t num_windows() const;
  size_t resident_bytes() const;

 private:
  mutable Mutex mu_;
  const size_t byte_budget_;
  std::deque<ProfileWindow> windows_ RASED_GUARDED_BY(mu_);
  size_t resident_bytes_ RASED_GUARDED_BY(mu_) = 0;
};

/// Result of an on-demand capture or a retained-window merge.
struct ProfileReport {
  int64_t duration_micros = 0;
  uint64_t samples = 0;
  uint64_t dropped = 0;
  std::map<std::string, uint64_t> folded;
};

/// Renders folded-stack lines ("frame;frame;frame <count>\n"), the format
/// flamegraph.pl and speedscope ingest directly.
std::string RenderFolded(const std::map<std::string, uint64_t>& folded);

/// Parses folded-stack text back into a stack->count map (the `rased
/// profile` renderer input). Rejects lines without a trailing count.
Result<std::map<std::string, uint64_t>> ParseFolded(std::string_view text);

/// Per-frame totals derived from a folded profile: `self` counts samples
/// with the frame on top, `cumulative` counts samples with the frame
/// anywhere on the stack (recursive frames counted once per sample).
struct FrameTotals {
  std::string name;
  uint64_t self = 0;
  uint64_t cumulative = 0;
};

/// Top `n` frames by cumulative count (ties broken by name).
std::vector<FrameTotals> TopFrames(
    const std::map<std::string, uint64_t>& folded, size_t n);

/// Process-wide signal-driven sampling CPU profiler.
///
/// Each registered thread (ProfilerThreadScope) owns a CPU-time POSIX
/// timer that delivers SIGPROF to exactly that thread at sample_hz. The
/// async-signal-safe handler walks the frame-pointer chain of the
/// interrupted context into a lock-free SPSC ring; a background reaper
/// drains the rings, symbolizes, and aggregates into folded-stack windows
/// retained under a byte budget. Start/Stop are refcounted: the profiler
/// runs while at least one Start is outstanding, and the SIGPROF handler
/// stays installed for the life of the process once armed (it ignores
/// signals while the profiler is stopped).
class Profiler {
 public:
  static Profiler* Global();

  /// Starts (or joins) process-wide profiling. The first caller's options
  /// win; later Start calls only bump the refcount.
  Status Start(const ProfilerOptions& options);

  /// Decrements the refcount; the last Stop disarms every timer, joins
  /// the reaper, fails outstanding captures, and drops its metric handles
  /// (the run's registry may be destroyed once Stop returns).
  void Stop();

  bool running() const;

  /// Blocks the calling thread for ~duration_micros of real time while
  /// the reaper routes freshly drained samples into this capture, then
  /// returns the aggregated profile. FailedPrecondition when stopped.
  Result<ProfileReport> CollectFor(int64_t duration_micros);

  /// Merges the in-progress window plus retained windows overlapping the
  /// trailing span_micros into one report, without blocking. Drains the
  /// per-thread rings first (when running), so the report covers samples
  /// up to the call even if the reaper has not run yet.
  Result<ProfileReport> RetainedReport(int64_t span_micros);

  /// Lifetime totals over drained rings (monotone).
  uint64_t samples_total() const;
  uint64_t dropped_total() const;

 private:
  friend class ProfilerThreadScope;
  struct Collector;
  using StackCounts = std::map<std::vector<uintptr_t>, uint64_t>;

  Profiler() = default;

  /// Registers the calling thread; arms its timer when running.
  profiler_internal::ThreadEntry* RegisterCurrentThread(const char* name);
  void UnregisterCurrentThread(profiler_internal::ThreadEntry* entry);

  Status ArmTimerLocked(profiler_internal::ThreadEntry* entry)
      RASED_REQUIRES(mu_);
  void DisarmTimerLocked(profiler_internal::ThreadEntry* entry)
      RASED_REQUIRES(mu_);
  void ReaperLoop(int64_t reap_interval_micros);
  void DrainOnce(int64_t now_micros);
  void DrainLocked(int64_t now_micros) RASED_REQUIRES(mu_);
  std::string FoldStack(const std::vector<uintptr_t>& pcs)
      RASED_REQUIRES(mu_);
  void FoldInto(const StackCounts& counts,
                std::map<std::string, uint64_t>* folded, uint64_t* samples)
      RASED_REQUIRES(mu_);

  mutable Mutex mu_;
  std::atomic<bool> reaper_running_{false};
  int active_refs_ RASED_GUARDED_BY(mu_) = 0;
  bool handler_installed_ RASED_GUARDED_BY(mu_) = false;
  ProfilerOptions options_ RASED_GUARDED_BY(mu_);
  std::vector<profiler_internal::ThreadEntry*> entries_ RASED_GUARDED_BY(mu_);
  std::vector<Collector*> collectors_ RASED_GUARDED_BY(mu_);
  std::map<uintptr_t, std::string> symbol_cache_ RASED_GUARDED_BY(mu_);
  std::unique_ptr<ProfileWindowRing> ring_ RASED_GUARDED_BY(mu_);
  StackCounts pending_ RASED_GUARDED_BY(mu_);
  int64_t window_start_micros_ RASED_GUARDED_BY(mu_) = 0;
  uint64_t window_dropped_ RASED_GUARDED_BY(mu_) = 0;
  uint64_t samples_total_ RASED_GUARDED_BY(mu_) = 0;
  uint64_t dropped_total_ RASED_GUARDED_BY(mu_) = 0;
  std::thread reaper_ RASED_GUARDED_BY(mu_);

  struct ProfilerMetrics {
    Counter* samples = nullptr;
    Counter* dropped = nullptr;
    Counter* handler_nanos = nullptr;
    Gauge* windows = nullptr;
    Gauge* window_bytes = nullptr;
    Gauge* threads = nullptr;
  };
  ProfilerMetrics metrics_ RASED_GUARDED_BY(mu_);
};

/// RAII registration of the calling thread with the profiler. Threads
/// that matter (HTTP workers, the CLI serve/main thread, bench workers)
/// open one of these at the top of their run loop; unregistered threads
/// are simply never sampled. Nesting is a no-op: the outermost scope owns
/// the registration. `name` must outlive the scope (string literals).
class ProfilerThreadScope {
 public:
  explicit ProfilerThreadScope(const char* name);
  ~ProfilerThreadScope();

  ProfilerThreadScope(const ProfilerThreadScope&) = delete;
  ProfilerThreadScope& operator=(const ProfilerThreadScope&) = delete;

 private:
  profiler_internal::ThreadEntry* entry_ = nullptr;
};

}  // namespace rased

#endif  // RASED_OBS_PROFILER_H_
