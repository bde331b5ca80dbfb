#include "collect/chunked_crawl.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <span>

namespace rased {

namespace {

constexpr size_t kNone = std::string_view::npos;

constexpr std::string_view kElements[] = {"node", "way", "relation"};
constexpr std::string_view kBlocks[] = {"create", "modify", "delete"};
constexpr std::string_view kChangesets[] = {"changeset"};

bool EndsName(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '/' ||
         c == '>';
}

/// Position of the next '<' at or after `from` that opens a tag named one
/// of `names`, or kNone; `*name_end` is set just past the name. A match
/// inside a comment or a value is possible; the fragment reader catches
/// it (see the header).
size_t NextStart(std::string_view xml, size_t from,
                 std::span<const std::string_view> names, size_t* name_end) {
  while (from < xml.size()) {
    const void* lt = std::memchr(xml.data() + from, '<', xml.size() - from);
    if (lt == nullptr) return kNone;
    const size_t at = static_cast<size_t>(static_cast<const char*>(lt) -
                                          xml.data());
    for (std::string_view name : names) {
      const size_t end = at + 1 + name.size();
      if (end < xml.size() && xml.compare(at + 1, name.size(), name) == 0 &&
          EndsName(xml[end])) {
        *name_end = end;
        return at;
      }
    }
    from = at + 1;
  }
  return kNone;
}

/// The raw value of the `id` attribute of the tag whose name ends at
/// `name_end`, or an empty view.
std::string_view IdOf(std::string_view xml, size_t name_end) {
  const size_t close = xml.find('>', name_end);
  const std::string_view tag = xml.substr(
      name_end, close == kNone ? kNone : close - name_end);
  for (size_t at = tag.find("id="); at != kNone; at = tag.find("id=", at + 1)) {
    if (at == 0 || !EndsName(tag[at - 1]) || at + 3 >= tag.size()) continue;
    const char quote = tag[at + 3];
    const size_t end = tag.find(quote, at + 4);
    if ((quote == '"' || quote == '\'') && end != kNone) {
      return tag.substr(at + 4, end - at - 4);
    }
  }
  return {};
}

/// Cuts `xml` at up to parts - 1 positions: cut k is cut_at(target), the
/// first cut found at or after an even share k / parts of the bytes (and
/// after the previous cut); cut_at returns kNone when none follows.
template <typename CutAt>
std::vector<std::string_view> Split(std::string_view xml, size_t parts,
                                    CutAt cut_at) {
  std::vector<std::string_view> fragments;
  size_t begin = 0;
  for (size_t k = 1; k < parts; ++k) {
    const size_t cut = cut_at(std::max(begin + 1, xml.size() / parts * k));
    if (cut == kNone) break;
    fragments.push_back(xml.substr(begin, cut - begin));
    begin = cut;
  }
  fragments.push_back(xml.substr(begin));
  return fragments;
}

}  // namespace

std::vector<std::string_view> SplitHistory(std::string_view xml,
                                           size_t parts) {
  return Split(xml, parts, [xml](size_t target) {
    // Take the first element at the target, then cut at the first one
    // after it whose (type, id) differs.
    size_t name_end = 0;
    size_t at = NextStart(xml, target, kElements, &name_end);
    if (at == kNone) return kNone;
    const std::string_view type = xml.substr(at + 1, name_end - at - 1);
    const std::string_view id = IdOf(xml, name_end);
    for (;;) {
      at = NextStart(xml, name_end, kElements, &name_end);
      if (at == kNone) return kNone;
      if (xml.substr(at + 1, name_end - at - 1) != type ||
          IdOf(xml, name_end) != id) {
        return at;
      }
    }
  });
}

std::vector<std::string_view> SplitOsmChange(std::string_view xml,
                                             size_t parts) {
  return Split(xml, parts, [xml](size_t target) {
    size_t name_end = 0;
    return NextStart(xml, target, kBlocks, &name_end);
  });
}

std::vector<std::string_view> SplitChangesets(std::string_view xml,
                                              size_t parts) {
  return Split(xml, parts, [xml](size_t target) {
    size_t name_end = 0;
    return NextStart(xml, target, kChangesets, &name_end);
  });
}

size_t CrawlPool::DefaultParts() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores <= 1 ? 1 : std::min<size_t>(3, cores - 1);
}

CrawlPool::CrawlPool(size_t parts) : parts_(std::max<size_t>(parts, 1)) {}

CrawlPool::~CrawlPool() {
  std::vector<std::thread> helpers;
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    helpers.swap(helpers_);
  }
  work_cv_.SignalAll();
  for (std::thread& helper : helpers) helper.join();
}

Status CrawlPool::Run(size_t n, const std::function<Status(size_t)>& crawl) {
  if (n <= 1 || parts_ == 1) {
    for (size_t i = 0; i < n; ++i) RASED_RETURN_IF_ERROR(crawl(i));
    return Status::OK();
  }
  MutexLock lock(&mu_);
  while (helpers_.size() + 1 < parts_) {
    helpers_.emplace_back([this] { HelperLoop(); });
  }
  job_ = &crawl;
  job_size_ = n;
  next_ = 0;
  unfinished_ = n;
  results_.assign(n, Status::OK());
  work_cv_.SignalAll();
  ClaimLocked();
  done_cv_.Wait(&mu_, [this]() RASED_REQUIRES(mu_) { return unfinished_ == 0; });
  job_ = nullptr;
  for (Status& s : results_) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

void CrawlPool::ClaimLocked() {
  while (job_ != nullptr && next_ < job_size_) {
    const size_t i = next_++;
    const std::function<Status(size_t)>& crawl = *job_;
    // Run returns only once unfinished_ is 0, so `crawl` outlives the call.
    mu_.unlock();
    Status s = crawl(i);
    mu_.lock();
    results_[i] = std::move(s);
    if (--unfinished_ == 0) done_cv_.SignalAll();
  }
}

void CrawlPool::HelperLoop() {
  // Serving comes first: in the idle scheduling class a helper runs only
  // on a core no other thread of the process wants, so an HTTP worker (or
  // the writer) that wakes takes the core at once, and a fragment the
  // helpers have not claimed yet goes to the writer. Best effort: on
  // failure the helper keeps the writer's class.
  sched_param param{};
  pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
  MutexLock lock(&mu_);
  for (;;) {
    work_cv_.Wait(&mu_, [this]() RASED_REQUIRES(mu_) {
      return stopping_ || (job_ != nullptr && next_ < job_size_);
    });
    if (stopping_) return;
    ClaimLocked();
  }
}

}  // namespace rased
