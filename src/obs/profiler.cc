#include "obs/profiler.h"

#if defined(__linux__)
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#define RASED_PROFILER_SUPPORTED 1
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <utility>

#include "util/clock.h"
#include "util/logging.h"
#include "util/signal_safety.h"
#include "util/str_util.h"
#include "util/symbolize.h"

// Linux delivers a per-thread CPU-clock timer's signal to one specific
// thread via SIGEV_THREAD_ID; older glibc headers spell the union member
// but not the POSIX-draft macro names.
#if defined(__linux__)
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif
#endif

namespace rased {

namespace profiler_internal {

/// Compile-time frame capacity of one ring slot; ProfilerOptions
/// max_stack_depth is clamped to this.
constexpr int kMaxDepthCap = 64;

struct RawSample {
  int32_t depth = 0;
  uintptr_t pc[kMaxDepthCap];
};

struct ThreadEntry {
  // SPSC ring: the signal handler (producer, this thread only) publishes
  // slots with a release store of head; the reaper (consumer, under the
  // profiler mutex) acquires head, reads, and releases tail.
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> tail{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> handler_nanos{0};

  uintptr_t stack_lo = 0;
  uintptr_t stack_hi = 0;
  pid_t tid = 0;
  int max_depth = 48;
  const char* name = "";
  std::vector<RawSample> slots;

  // Reaper-side (profiler-mutex-guarded) bookkeeping.
  bool timer_armed = false;
#if defined(RASED_PROFILER_SUPPORTED)
  timer_t timer{};
#endif
  uint64_t dropped_reaped = 0;
  uint64_t nanos_reaped = 0;
};

/// The registered entry of the current thread, written only by this
/// thread (ProfilerThreadScope); read by the SIGPROF handler, which runs
/// on this thread, so plain accesses are sequenced correctly.
thread_local ThreadEntry* g_thread_entry = nullptr;

/// Whether samples should be recorded; flipped by Start/Stop. The handler
/// stays installed across Stop and consults this flag.
std::atomic<bool> g_profiler_active{false};

/// SIGPROF deliveries with no registered entry or while stopped (e.g. a
/// queued signal landing right after unregistration).
std::atomic<uint64_t> g_unattributed{0};

/// Frame-pointer chain walk, bounded to the sampled thread's own stack so
/// every dereference is a valid read even mid-prologue. Sanitizers are
/// disabled for this function only: it deliberately reads raw stack words
/// (saved rbp/return-address slots) that ASan redzone bookkeeping and
/// TSan shadow do not model.
__attribute__((no_sanitize("address", "thread", "undefined"))) int
WalkFrames(uintptr_t pc, uintptr_t fp, uintptr_t stack_lo,
           uintptr_t stack_hi, int max_depth, uintptr_t* out) {
  int n = 0;
  if (max_depth > kMaxDepthCap) max_depth = kMaxDepthCap;
  if (pc != 0 && n < max_depth) out[n++] = pc;
  while (n < max_depth && fp >= stack_lo &&
         fp + 2 * sizeof(uintptr_t) <= stack_hi &&
         (fp & (sizeof(uintptr_t) - 1)) == 0) {
    const uintptr_t* frame = reinterpret_cast<const uintptr_t*>(fp);
    const uintptr_t next_fp = frame[0];
    const uintptr_t ret = frame[1];
    if (ret == 0) break;
    out[n++] = ret;
    if (next_fp <= fp) break;  // chain must grow toward the stack base
    fp = next_fp;
  }
  return n;
}

#if defined(RASED_PROFILER_SUPPORTED)
/// SIGPROF entry point. Async-signal-safe: errno save/restore, one TLS
/// read, an atomic-indexed write into a preallocated ring, clock_gettime
/// for self-accounting. No allocation, no locks, no stdio, no logging.
RASED_SIGNAL_HANDLER void SigprofHandler(int /*signo*/, siginfo_t* /*info*/,
                                         void* ucontext) {
  ScopedErrnoRestore errno_guard;
  ThreadEntry* entry = g_thread_entry;
  if (entry == nullptr ||
      !g_profiler_active.load(std::memory_order_relaxed)) {
    g_unattributed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  timespec t0;
  clock_gettime(CLOCK_MONOTONIC, &t0);

  uintptr_t pc = 0;
  uintptr_t fp = 0;
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext);
#if defined(__x86_64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
#elif defined(__aarch64__)
  pc = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
#else
  (void)uc;
#endif

  const uint64_t head = entry->head.load(std::memory_order_relaxed);
  const uint64_t tail = entry->tail.load(std::memory_order_acquire);
  if (head - tail >= entry->slots.size()) {
    entry->dropped.fetch_add(1, std::memory_order_relaxed);
  } else {
    RawSample& slot = entry->slots[head % entry->slots.size()];
    slot.depth = WalkFrames(pc, fp, entry->stack_lo, entry->stack_hi,
                            entry->max_depth, slot.pc);
    entry->head.store(head + 1, std::memory_order_release);
  }

  timespec t1;
  clock_gettime(CLOCK_MONOTONIC, &t1);
  const int64_t nanos = (t1.tv_sec - t0.tv_sec) * 1000000000LL +
                        (t1.tv_nsec - t0.tv_nsec);
  if (nanos > 0) {
    entry->handler_nanos.fetch_add(static_cast<uint64_t>(nanos),
                                   std::memory_order_relaxed);
  }
}
#endif  // RASED_PROFILER_SUPPORTED

/// Reaper poll tick; same idiom as the selfstats sampler (rased::CondVar
/// has no timed wait, and the due times are NowMicros-driven).
constexpr auto kReaperTick = std::chrono::milliseconds(20);

}  // namespace profiler_internal

using profiler_internal::g_profiler_active;
using profiler_internal::g_thread_entry;
using profiler_internal::RawSample;
using profiler_internal::ThreadEntry;

// ---------------------------------------------------------------------------
// ProfileWindow / ProfileWindowRing
// ---------------------------------------------------------------------------

size_t ProfileWindow::ResidentBytes() const {
  // Map-node and string overheads approximated per entry; the budget is a
  // sizing knob, not an allocator audit.
  size_t bytes = sizeof(ProfileWindow);
  for (const auto& [stack, count] : folded) {
    (void)count;
    bytes += stack.size() + 64;
  }
  return bytes;
}

ProfileWindowRing::ProfileWindowRing(size_t byte_budget)
    : byte_budget_(byte_budget == 0 ? 1 : byte_budget) {}

void ProfileWindowRing::Add(ProfileWindow window) {
  const size_t bytes = window.ResidentBytes();
  MutexLock lock(&mu_);
  windows_.push_back(std::move(window));
  resident_bytes_ += bytes;
  while (resident_bytes_ > byte_budget_ && windows_.size() > 1) {
    resident_bytes_ -= windows_.front().ResidentBytes();
    windows_.pop_front();
  }
}

ProfileWindow ProfileWindowRing::Merge(int64_t from_micros) const {
  MutexLock lock(&mu_);
  ProfileWindow out;
  bool first = true;
  for (const ProfileWindow& w : windows_) {
    if (w.end_micros < from_micros) continue;
    if (first) {
      out.start_micros = w.start_micros;
      first = false;
    }
    out.end_micros = std::max(out.end_micros, w.end_micros);
    out.samples += w.samples;
    out.dropped += w.dropped;
    for (const auto& [stack, count] : w.folded) out.folded[stack] += count;
  }
  return out;
}

size_t ProfileWindowRing::num_windows() const {
  MutexLock lock(&mu_);
  return windows_.size();
}

size_t ProfileWindowRing::resident_bytes() const {
  MutexLock lock(&mu_);
  return resident_bytes_;
}

// ---------------------------------------------------------------------------
// Folded-stack helpers
// ---------------------------------------------------------------------------

std::string RenderFolded(const std::map<std::string, uint64_t>& folded) {
  std::string out;
  for (const auto& [stack, count] : folded) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

Result<std::map<std::string, uint64_t>> ParseFolded(std::string_view text) {
  std::map<std::string, uint64_t> folded;
  size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    const size_t space = line.find_last_of(' ');
    if (space == std::string_view::npos || space == 0 ||
        space + 1 >= line.size()) {
      return Status::InvalidArgument(
          StrFormat("folded line %d has no trailing count", line_no));
    }
    RASED_ASSIGN_OR_RETURN(uint64_t count,
                           ParseUint(line.substr(space + 1)));
    folded[std::string(line.substr(0, space))] += count;
  }
  return folded;
}

std::vector<FrameTotals> TopFrames(
    const std::map<std::string, uint64_t>& folded, size_t n) {
  std::map<std::string, FrameTotals> totals;
  for (const auto& [stack, count] : folded) {
    std::set<std::string_view> seen;  // recursion: one charge per sample
    std::string_view rest = stack;
    std::string_view leaf;
    while (!rest.empty()) {
      size_t semi = rest.find(';');
      std::string_view frame = rest.substr(0, semi);
      rest = semi == std::string_view::npos ? std::string_view()
                                            : rest.substr(semi + 1);
      if (frame.empty()) continue;
      leaf = frame;
      if (seen.insert(frame).second) {
        FrameTotals& t = totals[std::string(frame)];
        t.cumulative += count;
      }
    }
    if (!leaf.empty()) totals[std::string(leaf)].self += count;
  }
  std::vector<FrameTotals> out;
  out.reserve(totals.size());
  for (auto& [name, t] : totals) {
    t.name = name;
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end(),
            [](const FrameTotals& a, const FrameTotals& b) {
              if (a.cumulative != b.cumulative) {
                return a.cumulative > b.cumulative;
              }
              return a.name < b.name;
            });
  if (out.size() > n) out.resize(n);
  return out;
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

struct Profiler::Collector {
  int64_t end_micros = 0;
  bool done = false;
  uint64_t dropped_at_start = 0;
  uint64_t dropped = 0;
  StackCounts counts;
};

Profiler* Profiler::Global() {
  static Profiler* profiler = new Profiler();
  return profiler;
}

Status Profiler::Start(const ProfilerOptions& options) {
#if !defined(RASED_PROFILER_SUPPORTED)
  (void)options;
  return Status::NotSupported("profiler requires Linux POSIX timers");
#else
  std::thread reaper;
  {
    MutexLock lock(&mu_);
    if (active_refs_ > 0) {
      ++active_refs_;
      return Status::OK();
    }
    options_ = options;
    options_.sample_hz = std::clamp(options_.sample_hz, 1, 1000);
    options_.max_stack_depth =
        std::clamp(options_.max_stack_depth, 1,
                   profiler_internal::kMaxDepthCap);
    options_.ring_slots = std::max<size_t>(options_.ring_slots, 16);
    options_.window_micros =
        std::max<int64_t>(options_.window_micros, 100 * 1000);
    options_.reap_interval_micros =
        std::max<int64_t>(options_.reap_interval_micros, 10 * 1000);

    if (!handler_installed_) {
      struct sigaction sa;
      std::memset(&sa, 0, sizeof(sa));
      sa.sa_sigaction = &profiler_internal::SigprofHandler;
      sa.sa_flags = SA_SIGINFO | SA_RESTART;
      sigemptyset(&sa.sa_mask);
      if (sigaction(SIGPROF, &sa, nullptr) != 0) {
        return Status::IOError(std::string("sigaction(SIGPROF): ") +
                               std::strerror(errno));
      }
      handler_installed_ = true;
    }

    // Handles point into the registry this Start was given, or nowhere:
    // an earlier run's registry may already be gone.
    metrics_ = ProfilerMetrics{};
    if (options_.metrics != nullptr) {
      MetricsRegistry* registry = options_.metrics;
      metrics_.samples = registry->GetCounter(
          "rased_profiler_samples_total",
          "CPU profile samples drained from per-thread rings");
      metrics_.dropped = registry->GetCounter(
          "rased_profiler_samples_dropped_total",
          "CPU profile samples dropped on full per-thread rings");
      metrics_.handler_nanos = registry->GetCounter(
          "rased_profiler_handler_nanos_total",
          "Cumulative nanoseconds spent inside the SIGPROF handler "
          "(profiler duty cycle numerator)");
      metrics_.windows = registry->GetGauge(
          "rased_profiler_windows_retained",
          "Always-on profile windows currently retained");
      metrics_.window_bytes = registry->GetGauge(
          "rased_profiler_window_resident_bytes",
          "Approximate bytes retained by the profile window ring");
      metrics_.threads = registry->GetGauge(
          "rased_profiler_threads_registered",
          "Threads currently registered for sampling");
      metrics_.threads->Set(static_cast<int64_t>(entries_.size()));
    }

    ring_ = std::make_unique<ProfileWindowRing>(options_.window_byte_budget);
    pending_.clear();
    window_dropped_ = 0;
    window_start_micros_ = NowMicros();

    for (ThreadEntry* entry : entries_) {
      Status armed = ArmTimerLocked(entry);
      if (!armed.ok()) {
        RASED_LOG(Warning) << "profiler: " << armed.ToString();
      }
    }
    g_profiler_active.store(true, std::memory_order_release);
    active_refs_ = 1;
    reaper_running_.store(true, std::memory_order_release);
    reaper = std::thread(
        [this, interval = options_.reap_interval_micros] {
          ReaperLoop(interval);
        });
    reaper_ = std::move(reaper);
  }
  return Status::OK();
#endif
}

void Profiler::Stop() {
  std::thread reaper;
  {
    MutexLock lock(&mu_);
    if (active_refs_ == 0) return;
    if (--active_refs_ > 0) return;
    g_profiler_active.store(false, std::memory_order_release);
    for (ThreadEntry* entry : entries_) DisarmTimerLocked(entry);
    reaper_running_.store(false, std::memory_order_release);
    reaper = std::move(reaper_);
  }
  if (reaper.joinable()) reaper.join();
  MutexLock lock(&mu_);
  // The reaper's final drain already ran; anything still waiting gets
  // what was collected so far.
  for (Collector* collector : collectors_) {
    collector->dropped = dropped_total_ - collector->dropped_at_start;
    collector->done = true;
  }
  collectors_.clear();
  // Thread registration outlives the run; it must not touch a registry
  // the caller may destroy once Stop returns (unless a new Start already
  // installed its own handles while the reaper was joined).
  if (active_refs_ == 0) metrics_ = ProfilerMetrics{};
}

bool Profiler::running() const {
  MutexLock lock(&mu_);
  return active_refs_ > 0;
}

uint64_t Profiler::samples_total() const {
  MutexLock lock(&mu_);
  return samples_total_;
}

uint64_t Profiler::dropped_total() const {
  MutexLock lock(&mu_);
  return dropped_total_;
}

Result<ProfileReport> Profiler::CollectFor(int64_t duration_micros) {
  if (duration_micros <= 0) duration_micros = 1000 * 1000;
  Collector collector;
  {
    MutexLock lock(&mu_);
    if (active_refs_ == 0) {
      return Status::FailedPrecondition("profiler is not running");
    }
    collector.end_micros = NowMicros() + duration_micros;
    collector.dropped_at_start = dropped_total_;
    collectors_.push_back(&collector);
  }
  for (;;) {
    {
      MutexLock lock(&mu_);
      if (collector.done) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ProfileReport report;
  report.duration_micros = duration_micros;
  report.dropped = collector.dropped;
  {
    MutexLock lock(&mu_);
    FoldInto(collector.counts, &report.folded, &report.samples);
  }
  return report;
}

Result<ProfileReport> Profiler::RetainedReport(int64_t span_micros) {
  MutexLock lock(&mu_);
  if (ring_ == nullptr) {
    return Status::FailedPrecondition("profiler has never run");
  }
  const int64_t now = NowMicros();
  // Pull anything still sitting in the per-thread rings so the report
  // covers samples right up to this call, not just the reaper's last
  // pass (at short uptimes the reaper may not have run at all yet).
  if (active_refs_ > 0) DrainLocked(now);
  const int64_t from = span_micros > 0 ? now - span_micros : INT64_MIN;
  ProfileWindow merged = ring_->Merge(from);
  ProfileReport report;
  report.folded = std::move(merged.folded);
  report.samples = merged.samples;
  report.dropped = merged.dropped + window_dropped_;
  // Include the in-progress window so a fresh server still reports.
  FoldInto(pending_, &report.folded, &report.samples);
  const int64_t start =
      merged.start_micros > 0 ? merged.start_micros : window_start_micros_;
  report.duration_micros = std::max<int64_t>(now - start, 0);
  return report;
}

ThreadEntry* Profiler::RegisterCurrentThread(const char* name) {
  auto* entry = new ThreadEntry();
  entry->name = name;
#if defined(RASED_PROFILER_SUPPORTED)
  entry->tid = static_cast<pid_t>(::syscall(SYS_gettid));
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* stack_addr = nullptr;
    size_t stack_size = 0;
    if (pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0) {
      entry->stack_lo = reinterpret_cast<uintptr_t>(stack_addr);
      entry->stack_hi = entry->stack_lo + stack_size;
    }
    pthread_attr_destroy(&attr);
  }
#endif
  MutexLock lock(&mu_);
  entry->max_depth = std::min(options_.max_stack_depth,
                              profiler_internal::kMaxDepthCap);
  entry->slots.resize(std::max<size_t>(options_.ring_slots, 16));
  entries_.push_back(entry);
  g_thread_entry = entry;  // this thread's TLS; handler sees it from here
  if (active_refs_ > 0) {
    Status armed = ArmTimerLocked(entry);
    if (!armed.ok()) {
      RASED_LOG(Warning) << "profiler: " << armed.ToString();
    }
  }
  if (metrics_.threads != nullptr) {
    metrics_.threads->Set(static_cast<int64_t>(entries_.size()));
  }
  return entry;
}

void Profiler::UnregisterCurrentThread(ThreadEntry* entry) {
  // Clear the TLS first: a SIGPROF queued by this thread's timer can
  // still be delivered until timer_delete below, and must find no entry.
  g_thread_entry = nullptr;
  MutexLock lock(&mu_);
  DisarmTimerLocked(entry);
  // Reap the tail of the ring so short-lived threads still contribute.
  const uint64_t head = entry->head.load(std::memory_order_acquire);
  for (uint64_t tail = entry->tail.load(std::memory_order_relaxed);
       tail != head; ++tail) {
    const RawSample& slot = entry->slots[tail % entry->slots.size()];
    const int depth = std::max<int32_t>(slot.depth, 0);
    std::vector<uintptr_t> pcs(slot.pc, slot.pc + depth);
    ++pending_[pcs];
    ++samples_total_;
  }
  const uint64_t dropped = entry->dropped.load(std::memory_order_relaxed);
  dropped_total_ += dropped - entry->dropped_reaped;
  window_dropped_ += dropped - entry->dropped_reaped;
  entries_.erase(std::find(entries_.begin(), entries_.end(), entry));
  if (metrics_.threads != nullptr) {
    metrics_.threads->Set(static_cast<int64_t>(entries_.size()));
  }
  delete entry;
}

Status Profiler::ArmTimerLocked(ThreadEntry* entry) {
#if defined(RASED_PROFILER_SUPPORTED)
  if (entry->timer_armed) return Status::OK();
  entry->max_depth = std::min(options_.max_stack_depth,
                              profiler_internal::kMaxDepthCap);
  if (entry->slots.size() != options_.ring_slots) {
    // Safe to resize: no signal targets this thread until timer_settime.
    entry->slots.assign(options_.ring_slots, RawSample{});
    entry->head.store(0, std::memory_order_relaxed);
    entry->tail.store(0, std::memory_order_relaxed);
  }
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id = entry->tid;
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &entry->timer) != 0) {
    return Status::IOError(StrFormat("timer_create(tid %d): %s", entry->tid,
                                     std::strerror(errno)));
  }
  const int64_t interval_ns = 1000000000LL / options_.sample_hz;
  itimerspec spec{};
  spec.it_interval.tv_sec = interval_ns / 1000000000LL;
  spec.it_interval.tv_nsec = interval_ns % 1000000000LL;
  spec.it_value = spec.it_interval;
  if (timer_settime(entry->timer, 0, &spec, nullptr) != 0) {
    timer_delete(entry->timer);
    return Status::IOError(StrFormat("timer_settime(tid %d): %s",
                                     entry->tid, std::strerror(errno)));
  }
  entry->timer_armed = true;
  return Status::OK();
#else
  (void)entry;
  return Status::NotSupported("profiler requires Linux POSIX timers");
#endif
}

void Profiler::DisarmTimerLocked(ThreadEntry* entry) {
#if defined(RASED_PROFILER_SUPPORTED)
  if (!entry->timer_armed) return;
  timer_delete(entry->timer);
  entry->timer_armed = false;
#else
  (void)entry;
#endif
}

void Profiler::ReaperLoop(int64_t reap_interval_micros) {
  int64_t next_due = 0;
  while (reaper_running_.load(std::memory_order_acquire)) {
    const int64_t now = NowMicros();
    if (now >= next_due) {
      DrainOnce(now);
      next_due = now + reap_interval_micros;
    }
    std::this_thread::sleep_for(profiler_internal::kReaperTick);
  }
  DrainOnce(NowMicros());
}

void Profiler::DrainOnce(int64_t now_micros) {
  MutexLock lock(&mu_);
  DrainLocked(now_micros);
}

void Profiler::DrainLocked(int64_t now_micros) {
  StackCounts batch;
  uint64_t batch_samples = 0;
  uint64_t batch_dropped = 0;
  uint64_t batch_nanos = 0;
  for (ThreadEntry* entry : entries_) {
    const uint64_t head = entry->head.load(std::memory_order_acquire);
    uint64_t tail = entry->tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const RawSample& slot = entry->slots[tail % entry->slots.size()];
      const int depth = std::max<int32_t>(slot.depth, 0);
      std::vector<uintptr_t> pcs(slot.pc, slot.pc + depth);
      ++batch[pcs];
      ++batch_samples;
    }
    entry->tail.store(tail, std::memory_order_release);
    const uint64_t dropped = entry->dropped.load(std::memory_order_relaxed);
    batch_dropped += dropped - entry->dropped_reaped;
    entry->dropped_reaped = dropped;
    const uint64_t nanos =
        entry->handler_nanos.load(std::memory_order_relaxed);
    batch_nanos += nanos - entry->nanos_reaped;
    entry->nanos_reaped = nanos;
  }
  samples_total_ += batch_samples;
  dropped_total_ += batch_dropped;
  window_dropped_ += batch_dropped;
  for (const auto& [pcs, count] : batch) pending_[pcs] += count;

  // Route the fresh batch into live captures, then finish the due ones.
  for (Collector* collector : collectors_) {
    for (const auto& [pcs, count] : batch) collector->counts[pcs] += count;
  }
  for (size_t i = 0; i < collectors_.size();) {
    Collector* collector = collectors_[i];
    if (now_micros >= collector->end_micros) {
      collector->dropped = dropped_total_ - collector->dropped_at_start;
      collector->done = true;
      collectors_.erase(collectors_.begin() + static_cast<ptrdiff_t>(i));
    } else {
      ++i;
    }
  }

  if (ring_ != nullptr &&
      now_micros - window_start_micros_ >= options_.window_micros) {
    ProfileWindow window;
    window.start_micros = window_start_micros_;
    window.end_micros = now_micros;
    window.dropped = window_dropped_;
    FoldInto(pending_, &window.folded, &window.samples);
    ring_->Add(std::move(window));
    pending_.clear();
    window_dropped_ = 0;
    window_start_micros_ = now_micros;
  }

  if (metrics_.samples != nullptr) {
    metrics_.samples->Increment(batch_samples);
    metrics_.dropped->Increment(batch_dropped);
    metrics_.handler_nanos->Increment(batch_nanos);
    if (ring_ != nullptr) {
      metrics_.windows->Set(static_cast<int64_t>(ring_->num_windows()));
      metrics_.window_bytes->Set(
          static_cast<int64_t>(ring_->resident_bytes()));
    }
  }
}

std::string Profiler::FoldStack(const std::vector<uintptr_t>& pcs) {
  if (pcs.empty()) return "(unknown)";
  // Samples are captured leaf-first; folded form reads root-first.
  std::string out;
  for (size_t i = pcs.size(); i-- > 0;) {
    auto it = symbol_cache_.find(pcs[i]);
    if (it == symbol_cache_.end()) {
      it = symbol_cache_.emplace(pcs[i], SymbolizePc(pcs[i])).first;
    }
    if (!out.empty()) out += ';';
    out += it->second;
  }
  return out;
}

void Profiler::FoldInto(const StackCounts& counts,
                        std::map<std::string, uint64_t>* folded,
                        uint64_t* samples) {
  for (const auto& [pcs, count] : counts) {
    (*folded)[FoldStack(pcs)] += count;
    *samples += count;
  }
}

// ---------------------------------------------------------------------------
// ProfilerThreadScope
// ---------------------------------------------------------------------------

ProfilerThreadScope::ProfilerThreadScope(const char* name) {
  if (g_thread_entry != nullptr) return;  // nested: outermost scope owns
  entry_ = Profiler::Global()->RegisterCurrentThread(name);
}

ProfilerThreadScope::~ProfilerThreadScope() {
  if (entry_ == nullptr) return;
  Profiler::Global()->UnregisterCurrentThread(entry_);
}

}  // namespace rased
