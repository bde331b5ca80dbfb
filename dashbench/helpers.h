// Small self-contained helpers of the dashboard benchmark: order
// statistics, the Zipf anchor sampler, the open-loop schedule clock,
// FNV-1a hashing, and the result line printer. Tested by helpers_test.cc.
#ifndef DASHBENCH_HELPERS_H_
#define DASHBENCH_HELPERS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dashbench {

/// A failed operation's latency: it misses every latency limit.
inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty. A
/// failed sample (kFailed) sorts last, so it counts against the tail.
double Percentile(std::vector<double> values, double q);

/// How many samples lie strictly above the q-th percentile's rank — the
/// number of samples beyond the reported percentile. The benchmark reports
/// a tail percentile only where this is at least 10.
size_t SamplesBeyond(size_t n, double q);

/// Zipf(theta) over offsets {0, ..., n-1}: offset k has weight
/// 1 / (k + 1)^theta, so offset 0 (the newest day) is the most likely.
/// Deterministic in the caller's 64-bit state.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);
  /// Maps a uniform u in [0, 1) to an offset.
  size_t Sample(double u) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// SplitMix64: the benchmark's own seeded generator, so request streams
/// do not depend on any library's generator.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Uniform draws in [0, 1), stratified in blocks: each block of `block`
/// draws takes one point from each of `block` equal slices, in seeded
/// order. Any stretch of whole blocks then carries nearly the same mix, so
/// the spread between seeds comes from the system, not from the luck of
/// the draw.
class StratifiedUniform {
 public:
  StratifiedUniform(SplitMix* rng, int block) : rng_(rng), block_(block) {}
  double Next();

 private:
  SplitMix* rng_;
  int block_;
  std::vector<double> pending_;
};

/// Fixed-rate open-loop schedule: operation i is due at start + i / rate.
/// Latency is measured from DueMicros(i), never from the actual send, so a
/// stall is charged to every operation it delays.
class Schedule {
 public:
  Schedule(int64_t start_us, double rate_per_s)
      : start_us_(start_us), rate_(rate_per_s) {}
  int64_t DueMicros(uint64_t i) const {
    return start_us_ + static_cast<int64_t>(static_cast<double>(i) * 1e6 /
                                            rate_);
  }
  /// Operations due at or before `now_us` (i.e. the index of the first
  /// operation not yet due).
  uint64_t DueCount(int64_t now_us) const;
  int64_t start_us() const { return start_us_; }

 private:
  int64_t start_us_;
  double rate_;
};

uint64_t Fnv1a(std::string_view data, uint64_t h = 1469598103934665603ull);

/// Reads `name`'s value out of Prometheus text exposition: the sum over
/// every series of that name whose label set contains all of `labels`
/// (each a `key="value"` string).
double PromValue(std::string_view text, std::string_view name,
                 const std::vector<std::string>& labels = {});

/// Cumulative histogram buckets (upper bound -> count) of `name` from
/// Prometheus text, restricted to series carrying `labels`.
std::map<double, double> PromBuckets(std::string_view text,
                                     std::string_view name,
                                     const std::vector<std::string>& labels);

/// Percentile from cumulative bucket counts, linearly interpolated inside
/// the bucket that holds the rank (the lower edge of the first bucket is
/// 0). Returns 0 when there are no observations.
double BucketPercentile(const std::map<double, double>& cumulative, double q);

/// One metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics);

}  // namespace dashbench

#endif  // DASHBENCH_HELPERS_H_
