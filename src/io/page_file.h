#ifndef RASED_IO_PAGE_FILE_H_
#define RASED_IO_PAGE_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace rased {

/// Identifier of a page inside a PageFile. Page 0 is the file header; user
/// pages start at 1. kInvalidPageId marks "no page".
using PageId = uint64_t;
inline constexpr PageId kInvalidPageId = 0;

/// PageFile stores fixed-size pages in a single on-disk file, the substrate
/// beneath both the cube index and the warehouse/baseline heap files.
///
/// Layout: page 0 holds the header (magic, version, page size, page count);
/// every subsequent page is <payload..., crc32c (4 bytes)>. Page payload
/// capacity is therefore page_size - 4. The checksum is validated on every
/// read, surfacing torn or corrupted pages as Status::Corruption.
///
/// Threading contract: ReadPage is a positional pread of an
/// already-allocated page and is safe from any number of threads
/// concurrently (num_pages_ is atomic, so the bounds check never races an
/// allocation). AllocatePage/WritePage/Sync mutate the file and require
/// external serialization — against each other and against readers of the
/// page being (re)written; the Pager's callers provide it.
class PageFile {
 public:
  static constexpr uint32_t kMagic = 0x52415345;  // "RASE"
  /// Format version written to new files. v2 marks files whose cube pages
  /// may hold multi-page encoded blobs (cube/cube_codec.h); Open() rejects
  /// v1 (seed-format) files, whose cube pages carry no blob header.
  static constexpr uint32_t kVersion = 2;
  static constexpr uint32_t kMinSupportedVersion = 2;
  static constexpr size_t kChecksumBytes = 4;

  /// Creates a new page file (fails if it already exists).
  static Result<std::unique_ptr<PageFile>> Create(const std::string& path,
                                                  size_t page_size);

  /// Opens an existing page file; the stored page size is recovered from
  /// the header.
  static Result<std::unique_ptr<PageFile>> Open(const std::string& path);

  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Appends a zeroed page and returns its id (>= 1).
  Result<PageId> AllocatePage();

  /// Appends `count` zeroed pages with consecutive ids and returns the
  /// first (the run is [first, first + count)). Requires count >= 1.
  Result<PageId> AllocatePages(size_t count);

  /// Writes `payload` (must be <= payload_size()) into the page; the rest
  /// of the page is zero-filled and the checksum updated.
  Status WritePage(PageId id, const void* payload, size_t n);

  /// Reads and checksum-validates the page payload (payload_size() bytes).
  Status ReadPage(PageId id, void* payload) const;

  /// Reads `count` physically adjacent pages [first, first+count) with one
  /// positional pread and checksum-validates each. `pages` receives the
  /// raw page images (count * page_size() bytes, checksum trailers
  /// included) — callers extract the payloads themselves. Like ReadPage,
  /// safe from any number of threads concurrently.
  Status ReadPages(PageId first, size_t count, unsigned char* pages) const;

  size_t page_size() const { return page_size_; }
  /// Usable bytes per page (page_size minus the checksum trailer).
  size_t payload_size() const { return page_size_ - kChecksumBytes; }
  /// Number of allocated user pages (safe to read from any thread).
  uint64_t num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  const std::string& path() const { return path_; }

  /// Flushes and persists the header. Called automatically on destruction.
  Status Sync();

 private:
  PageFile(std::string path, int fd, size_t page_size, uint64_t num_pages);

  Status WriteHeader();

  std::string path_;
  int fd_;
  size_t page_size_;
  /// Atomic so concurrent readers can bounds-check against a stable count
  /// while (externally serialized) allocations grow the file. release on
  /// publish / acquire on read orders the zero-fill write of a fresh page
  /// before any reader can address it.
  std::atomic<uint64_t> num_pages_;
};

}  // namespace rased

#endif  // RASED_IO_PAGE_FILE_H_
