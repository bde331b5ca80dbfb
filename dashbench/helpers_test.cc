// Tests of the benchmark's own helpers. Plain checks, no framework:
// prints each failure and exits non-zero if any check failed.

#include <cmath>
#include <cstdio>
#include <vector>

#include "helpers.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  Check(dashbench::Percentile(v, 0.5) == 50, "p50 of 1..100 is 50");
  Check(dashbench::Percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  Check(dashbench::Percentile(v, 1.0) == 100, "p100 is the maximum");
  Check(dashbench::Percentile({}, 0.5) == 0, "empty percentile is 0");
  // A failure sorts last: it is the tail, never hidden.
  std::vector<double> with_failure = {1, 2, dashbench::kFailed};
  Check(std::isinf(dashbench::Percentile(with_failure, 1.0)),
        "a failed sample is the worst sample");
  Check(dashbench::Percentile(with_failure, 0.5) == 2, "p50 ignores one failure");
}

void TestSamplesBeyond() {
  Check(dashbench::SamplesBeyond(100, 0.99) == 1, "p99 of 100 has 1 beyond");
  Check(dashbench::SamplesBeyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  Check(dashbench::SamplesBeyond(200, 0.95) == 10, "p95 of 200 has 10 beyond");
  Check(dashbench::SamplesBeyond(199, 0.95) == 9, "p95 of 199 has 9 beyond");
  Check(dashbench::SamplesBeyond(0, 0.5) == 0, "nothing beyond an empty set");
}

void TestZipf() {
  dashbench::ZipfSampler zipf(365, 1.0);
  auto draw = [&](uint64_t seed) {
    dashbench::SplitMix rng(seed);
    std::vector<size_t> out;
    for (int i = 0; i < 1000; ++i) out.push_back(zipf.Sample(rng.NextDouble()));
    return out;
  };
  Check(draw(7) == draw(7), "Zipf draws are deterministic per seed");
  Check(draw(7) != draw(8), "different seeds draw differently");
  std::vector<size_t> d = draw(7);
  size_t newest = 0, in_range = 0;
  for (size_t k : d) {
    newest += k == 0;
    in_range += k < 365;
  }
  Check(in_range == d.size(), "offsets stay inside [0, n)");
  // Offset 0 has probability 1/H(365) ~ 0.154.
  Check(newest > 100 && newest < 220, "the newest day is the mode");
  Check(zipf.Sample(0.0) == 0 && zipf.Sample(0.999999999) == 364,
        "the CDF spans every offset");
}

void TestStratified() {
  dashbench::SplitMix rng(3);
  dashbench::StratifiedUniform draw(&rng, 16);
  std::vector<int> hits(16, 0);
  for (int i = 0; i < 16; ++i) {
    double u = draw.Next();
    Check(u >= 0 && u < 1, "stratified draws stay in [0, 1)");
    ++hits[static_cast<int>(u * 16)];
  }
  bool each_once = true;
  for (int h : hits) each_once &= h == 1;
  Check(each_once, "a block takes one draw from each slice");
  dashbench::SplitMix a(9), b(9);
  dashbench::StratifiedUniform da(&a, 16), db(&b, 16);
  bool same = true;
  for (int i = 0; i < 40; ++i) same &= da.Next() == db.Next();
  Check(same, "stratified draws are deterministic per seed");
}

void TestSchedule() {
  dashbench::Schedule s(1'000'000, 200.0);  // one every 5 ms
  Check(s.DueMicros(0) == 1'000'000, "op 0 is due at start");
  Check(s.DueMicros(3) == 1'015'000, "op 3 is due 15 ms in");
  Check(s.DueCount(999'999) == 0, "nothing is due before start");
  Check(s.DueCount(1'000'000) == 1, "op 0 is due exactly at start");
  Check(s.DueCount(1'014'999) == 3, "ops 0-2 due just before op 3");
  Check(s.DueCount(1'015'000) == 4, "op 3 due at its time");
  dashbench::Schedule odd(0, 3.0);  // non-integral spacing
  for (uint64_t i = 0; i < 1000; ++i) {
    if (odd.DueCount(odd.DueMicros(i)) != i + 1) {
      Check(false, "DueCount agrees with DueMicros at every due time");
      break;
    }
  }
}

void TestPrometheus() {
  const char* text =
      "# HELP x help\n"
      "rased_pager_page_reads_total{file=\"index\"} 12\n"
      "rased_pager_page_reads_total{file=\"warehouse\"} 5\n"
      "rased_queries_total 7\n"
      "rased_h_bucket{endpoint=\"/a\",le=\"10\"} 2\n"
      "rased_h_bucket{endpoint=\"/a\",le=\"20\"} 6\n"
      "rased_h_bucket{endpoint=\"/a\",le=\"+Inf\"} 6\n";
  Check(dashbench::PromValue(text, "rased_pager_page_reads_total",
                             {"file=\"index\""}) == 12,
        "label-filtered counter");
  Check(dashbench::PromValue(text, "rased_pager_page_reads_total") == 17,
        "unfiltered counter sums every series");
  Check(dashbench::PromValue(text, "rased_queries_total") == 7, "bare counter");
  auto buckets =
      dashbench::PromBuckets(text, "rased_h", {"endpoint=\"/a\""});
  // Rank 3 of 6 lies one quarter into the (10, 20] bucket.
  Check(dashbench::BucketPercentile(buckets, 0.5) == 12.5,
        "bucket percentile interpolates inside the bucket");
}

}  // namespace

int main() {
  TestPercentile();
  TestSamplesBeyond();
  TestZipf();
  TestStratified();
  TestSchedule();
  TestPrometheus();
  if (failures == 0) std::printf("dashbench helpers: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
