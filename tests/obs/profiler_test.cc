#include "obs/profiler.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/clock.h"

namespace rased {
namespace {

// ---------------------------------------------------------------------------
// ProfileWindowRing: pure data structure, FakeClock-stamped windows.
// ---------------------------------------------------------------------------

ProfileWindow MakeWindow(FakeClock* clock, int64_t width_micros,
                         uint64_t samples, const std::string& stack) {
  ProfileWindow window;
  window.start_micros = clock->NowMicros();
  clock->Advance(width_micros);
  window.end_micros = clock->NowMicros();
  window.samples = samples;
  window.dropped = 0;
  window.folded[stack] = samples;
  return window;
}

TEST(ProfilerWindowRingTest, EvictsOldestFirstWhenOverBudget) {
  FakeClock clock(1000000);
  // Budget sized for roughly two windows: each window's resident bytes
  // are dominated by its one folded stack plus fixed overhead.
  ProfileWindow probe = MakeWindow(&clock, 1000, 1, "main;work;leaf");
  const size_t one = probe.ResidentBytes();
  ProfileWindowRing ring(2 * one + one / 2);

  ring.Add(MakeWindow(&clock, 1000, 10, "main;work;alpha"));
  ring.Add(MakeWindow(&clock, 1000, 20, "main;work;beta"));
  EXPECT_EQ(ring.num_windows(), 2u);
  ring.Add(MakeWindow(&clock, 1000, 30, "main;work;gamma"));
  // Third window pushes resident bytes over budget: the oldest goes.
  EXPECT_EQ(ring.num_windows(), 2u);
  EXPECT_LE(ring.resident_bytes(), 2 * one + one / 2);

  ProfileWindow merged = ring.Merge(INT64_MIN);
  EXPECT_EQ(merged.samples, 50u);  // alpha evicted, beta+gamma retained
  EXPECT_EQ(merged.folded.count("main;work;alpha"), 0u);
  EXPECT_EQ(merged.folded.at("main;work;beta"), 20u);
  EXPECT_EQ(merged.folded.at("main;work;gamma"), 30u);
}

TEST(ProfilerWindowRingTest, NewestWindowSurvivesEvenOversized) {
  FakeClock clock(0);
  ProfileWindowRing ring(1);  // absurdly small budget
  ring.Add(MakeWindow(&clock, 1000, 7, "main;huge"));
  EXPECT_EQ(ring.num_windows(), 1u);
  EXPECT_EQ(ring.Merge(INT64_MIN).samples, 7u);
}

TEST(ProfilerWindowRingTest, MergeFiltersByOverlapWithTrailingSpan) {
  FakeClock clock(0);
  ProfileWindowRing ring(1 << 20);
  ring.Add(MakeWindow(&clock, 1000, 1, "old"));    // [0, 1000)
  ring.Add(MakeWindow(&clock, 1000, 2, "mid"));    // [1000, 2000)
  ring.Add(MakeWindow(&clock, 1000, 4, "young"));  // [2000, 3000)

  EXPECT_EQ(ring.Merge(INT64_MIN).samples, 7u);
  // Windows whose end precedes the cutoff are excluded; overlap keeps.
  ProfileWindow tail = ring.Merge(1500);
  EXPECT_EQ(tail.samples, 6u);
  EXPECT_EQ(tail.folded.count("old"), 0u);
  EXPECT_EQ(ring.Merge(2500).samples, 4u);
  EXPECT_EQ(ring.Merge(99999).samples, 0u);
}

// ---------------------------------------------------------------------------
// Folded-stack text round trip and per-frame totals.
// ---------------------------------------------------------------------------

TEST(ProfilerFoldedTest, RenderParseRoundTrip) {
  std::map<std::string, uint64_t> folded = {
      {"main;QueryExecutor::Execute;Aggregate", 120},
      {"main;HttpServer::AcceptLoop", 7},
      {"main", 1},
  };
  std::string text = RenderFolded(folded);
  auto parsed = ParseFolded(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value(), folded);
}

TEST(ProfilerFoldedTest, ParseRejectsLinesWithoutCount) {
  EXPECT_FALSE(ParseFolded("main;work\n").ok());
  EXPECT_FALSE(ParseFolded("main;work notanumber\n").ok());
  auto empty = ParseFolded("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(ProfilerFoldedTest, TopFramesSelfAndCumulative) {
  std::map<std::string, uint64_t> folded = {
      {"a;b", 3},
      {"a;c", 2},
      {"c", 5},
  };
  std::vector<FrameTotals> top = TopFrames(folded, 10);
  ASSERT_EQ(top.size(), 3u);
  // c: cumulative 7 (leaf of a;c plus alone), self 7.
  EXPECT_EQ(top[0].name, "c");
  EXPECT_EQ(top[0].cumulative, 7u);
  EXPECT_EQ(top[0].self, 7u);
  // a: on every "a;*" stack but never on top.
  EXPECT_EQ(top[1].name, "a");
  EXPECT_EQ(top[1].cumulative, 5u);
  EXPECT_EQ(top[1].self, 0u);
  EXPECT_EQ(top[2].name, "b");
  EXPECT_EQ(top[2].cumulative, 3u);
  EXPECT_EQ(top[2].self, 3u);

  EXPECT_EQ(TopFrames(folded, 1).size(), 1u);
}

TEST(ProfilerFoldedTest, RecursiveFramesCountOncePerSample) {
  std::map<std::string, uint64_t> folded = {{"f;f;f", 4}};
  std::vector<FrameTotals> top = TopFrames(folded, 10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].cumulative, 4u);  // not 12: one charge per sample
  EXPECT_EQ(top[0].self, 4u);
}

// ---------------------------------------------------------------------------
// Live profiler: timers, handler, reaper, collectors.
// ---------------------------------------------------------------------------

__attribute__((noinline)) double BurnCpu(int iters) {
  double acc = 0;
  for (int i = 0; i < iters; ++i) acc += static_cast<double>(i) * 1e-9;
  return acc;
}

TEST(ProfilerTest, CollectForSamplesABusyRegisteredThread) {
  ProfilerOptions options;
  ASSERT_TRUE(Profiler::Global()->Start(options).ok());
  std::atomic<bool> stop{false};
  std::atomic<double> sink{0};
  std::thread worker([&] {
    ProfilerThreadScope scope("profiler-test-worker");
    while (!stop.load(std::memory_order_relaxed)) {
      sink.store(BurnCpu(200000), std::memory_order_relaxed);
    }
  });
  auto report = Profiler::Global()->CollectFor(400 * 1000);
  stop.store(true);
  worker.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // A thread spinning through a 400ms window at 99 Hz CPU-time sampling
  // must produce samples; the exact count depends on scheduling.
  EXPECT_GT(report.value().samples, 0u);
  EXPECT_FALSE(report.value().folded.empty());
  Profiler::Global()->Stop();
}

TEST(ProfilerTest, StartIsRefcountedAndCollectFailsWhenStopped) {
  ProfilerOptions options;
  ASSERT_TRUE(Profiler::Global()->Start(options).ok());
  ASSERT_TRUE(Profiler::Global()->Start(options).ok());
  Profiler::Global()->Stop();
  EXPECT_TRUE(Profiler::Global()->running());
  Profiler::Global()->Stop();
  EXPECT_FALSE(Profiler::Global()->running());
  auto report = Profiler::Global()->CollectFor(1000);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsFailedPrecondition());
}

// The last Stop drops the run's registry handles: threads registering
// after the registry is gone must not write to it (ASan reports the
// use-after-free otherwise), and the next run reports into its own.
TEST(ProfilerTest, StopReleasesRegistryHandles) {
  {
    MetricsRegistry first;
    ProfilerOptions options;
    options.metrics = &first;
    ASSERT_TRUE(Profiler::Global()->Start(options).ok());
    Profiler::Global()->Stop();
  }
  std::thread([] { ProfilerThreadScope scope("profiler-test-late"); }).join();

  MetricsRegistry second;
  ProfilerOptions options;
  options.metrics = &second;
  ASSERT_TRUE(Profiler::Global()->Start(options).ok());
  std::thread([] { ProfilerThreadScope scope("profiler-test-second"); })
      .join();
  EXPECT_NE(second.RenderPrometheus().find(
                "rased_profiler_threads_registered"),
            std::string::npos);
  Profiler::Global()->Stop();
}

// The SIGPROF disposition is installed once and latched for the life of
// the process — including across fork(). A child that inherits an armed
// CPU timer but an unregistered TLS entry must survive a delivered signal
// (the handler no-ops), not die with the default SIGPROF action.
TEST(ProfilerTest, SigprofHandlerStaysInstalledAfterFork) {
  ProfilerOptions options;
  ASSERT_TRUE(Profiler::Global()->Start(options).ok());
  {
    ProfilerThreadScope scope("profiler-test-fork");
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: only async-signal-safe work. The handler must still be
      // installed (SA_SIGINFO, non-default), and a self-delivered SIGPROF
      // must not kill the process.
      struct sigaction current;
      if (sigaction(SIGPROF, nullptr, &current) != 0) _exit(2);
      if ((current.sa_flags & SA_SIGINFO) == 0) _exit(3);
      if (current.sa_sigaction == nullptr) _exit(4);
      if (kill(getpid(), SIGPROF) != 0) _exit(5);
      _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                   << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
  Profiler::Global()->Stop();
}

}  // namespace
}  // namespace rased
