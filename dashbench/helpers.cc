#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dashbench {

namespace {

size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  double rank = std::ceil(q * static_cast<double>(n));
  if (rank < 1) rank = 1;
  return std::min(n, static_cast<size_t>(rank));
}

// Whether the label block `{...}` of a series line carries every label.
bool HasLabels(std::string_view block, const std::vector<std::string>& labels) {
  for (const std::string& label : labels) {
    if (block.find(label) == std::string_view::npos) return false;
  }
  return true;
}

// Calls visit(label_block, value) for each sample line of metric `name`.
template <typename Visit>
void ForEachSeries(std::string_view text, std::string_view name, Visit visit) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    if (line.substr(0, name.size()) != name) continue;
    std::string_view rest = line.substr(name.size());
    std::string_view block;
    if (!rest.empty() && rest[0] == '{') {
      size_t close = rest.find('}');
      if (close == std::string_view::npos) continue;
      block = rest.substr(0, close + 1);
      rest = rest.substr(close + 1);
    }
    if (rest.empty() || rest[0] != ' ') continue;
    std::string value(rest.substr(1));
    visit(block, std::strtod(value.c_str(), nullptr));
  }
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) { return n - NearestRank(n, q); }

ZipfSampler::ZipfSampler(size_t n, double theta) : cdf_(n) {
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double StratifiedUniform::Next() {
  if (pending_.empty()) {
    for (int j = 0; j < block_; ++j) {
      pending_.push_back((j + rng_->NextDouble()) / block_);
    }
    for (int j = block_ - 1; j > 0; --j) {
      std::swap(pending_[j], pending_[rng_->Uniform(j + 1)]);
    }
  }
  double u = pending_.back();
  pending_.pop_back();
  return u;
}

uint64_t Schedule::DueCount(int64_t now_us) const {
  if (now_us < start_us_) return 0;
  double elapsed_s = static_cast<double>(now_us - start_us_) / 1e6;
  uint64_t n = static_cast<uint64_t>(elapsed_s * rate_) + 1;
  // Float rounding can put the boundary one off either way; settle it on
  // DueMicros, the definition of when an operation is due.
  while (n > 0 && DueMicros(n - 1) > now_us) --n;
  while (DueMicros(n) <= now_us) ++n;
  return n;
}

uint64_t Fnv1a(std::string_view data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double PromValue(std::string_view text, std::string_view name,
                 const std::vector<std::string>& labels) {
  double sum = 0;
  ForEachSeries(text, name, [&](std::string_view block, double value) {
    if (HasLabels(block, labels)) sum += value;
  });
  return sum;
}

std::map<double, double> PromBuckets(std::string_view text,
                                     std::string_view name,
                                     const std::vector<std::string>& labels) {
  std::map<double, double> buckets;
  std::string bucket_name = std::string(name) + "_bucket";
  ForEachSeries(text, bucket_name, [&](std::string_view block, double value) {
    if (!HasLabels(block, labels)) return;
    size_t le = block.find("le=\"");
    if (le == std::string_view::npos) return;
    std::string bound(block.substr(le + 4, block.find('"', le + 4) - le - 4));
    double upper = bound == "+Inf" ? kFailed : std::strtod(bound.c_str(), nullptr);
    buckets[upper] += value;
  });
  return buckets;
}

double BucketPercentile(const std::map<double, double>& cumulative, double q) {
  if (cumulative.empty()) return 0;
  double total = cumulative.rbegin()->second;
  if (total <= 0) return 0;
  double rank = std::max(1.0, std::ceil(q * total));
  double lower_bound = 0, lower_count = 0;
  for (const auto& [upper, count] : cumulative) {
    if (count >= rank) {
      // The +Inf bucket has no upper edge: report its lower edge.
      if (std::isinf(upper)) return lower_bound;
      double in_bucket = count - lower_count;
      double frac = in_bucket > 0 ? (rank - lower_count) / in_bucket : 1.0;
      return lower_bound + frac * (upper - lower_bound);
    }
    lower_bound = upper;
    lower_count = count;
  }
  return lower_bound;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    // JSON has no infinity or NaN; a metric that could not be measured
    // is reported as -1, which no real measurement produces.
    double value = std::isfinite(metric.value) ? metric.value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace dashbench
