#ifndef RASED_COLLECT_CHUNKED_CRAWL_H_
#define RASED_COLLECT_CHUNKED_CRAWL_H_

#include <cstddef>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace rased {

/// The chunked crawl (DESIGN.md §11.7). A splitter cuts one OSM document
/// into at most `parts` fragments, each a view into it, always at the
/// start tag of a child of the root element; XmlFragment says how each one
/// is read. A crawl of the fragments, one per thread, gives the serial
/// crawl's output in fragment order. A cut the splitter misplaces, say at
/// a look-alike tag inside a comment, leaves its fragment ending inside a
/// construct, which the fragment reader reports as an error; the crawlers
/// then crawl the whole document serially, so the error a caller sees is
/// always the serial one.

/// Cuts a full-history file only where the element's (type, id) changes,
/// so that every run of one element's versions stays in one fragment.
std::vector<std::string_view> SplitHistory(std::string_view xml,
                                           size_t parts);

/// Cuts an osmChange file at <create>/<modify>/<delete> block starts.
std::vector<std::string_view> SplitOsmChange(std::string_view xml,
                                             size_t parts);

/// Cuts a changeset file at <changeset> starts.
std::vector<std::string_view> SplitChangesets(std::string_view xml,
                                              size_t parts);

/// A small pool that crawls the fragments of one document at once: the
/// calling thread and up to parts() - 1 helper threads, which start at the
/// first call that has more than one fragment and live as long as the pool.
/// The writer owns ordering: it splits, hands out fragments, and consumes
/// their outputs in fragment order; the fragments' crawls share nothing
/// mutable.
///
/// Threading contract: Run is called by one thread at a time (the writer).
class CrawlPool {
 public:
  /// Fragments per document: min(3, hardware_concurrency - 1), at least
  /// 1, so one core stays free for serving. 1 is the serial crawl.
  static size_t DefaultParts();

  explicit CrawlPool(size_t parts = DefaultParts());
  ~CrawlPool();

  CrawlPool(const CrawlPool&) = delete;
  CrawlPool& operator=(const CrawlPool&) = delete;

  size_t parts() const { return parts_; }

  /// Runs crawl(i) for every i in [0, n) and returns when all have
  /// returned. The calling thread takes fragments too. Returns the status
  /// of the first failed fragment in fragment order, or OK.
  Status Run(size_t n, const std::function<Status(size_t)>& crawl)
      RASED_EXCLUDES(mu_);

 private:
  /// Claims and crawls fragments of the current job until none is left.
  void ClaimLocked() RASED_REQUIRES(mu_);
  void HelperLoop() RASED_EXCLUDES(mu_);

  const size_t parts_;

  Mutex mu_;
  CondVar work_cv_;  // a job was posted, or the pool stops
  CondVar done_cv_;  // the job's last fragment finished
  const std::function<Status(size_t)>* job_ RASED_GUARDED_BY(mu_) = nullptr;
  size_t job_size_ RASED_GUARDED_BY(mu_) = 0;
  size_t next_ RASED_GUARDED_BY(mu_) = 0;        // next fragment to claim
  size_t unfinished_ RASED_GUARDED_BY(mu_) = 0;  // claimed or not, not done
  std::vector<Status> results_ RASED_GUARDED_BY(mu_);
  bool stopping_ RASED_GUARDED_BY(mu_) = false;
  std::vector<std::thread> helpers_ RASED_GUARDED_BY(mu_);
};

}  // namespace rased

#endif  // RASED_COLLECT_CHUNKED_CRAWL_H_
