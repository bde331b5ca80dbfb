#include "io/page_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "io/crc32c.h"
#include "util/logging.h"
#include "util/str_util.h"

namespace rased {

namespace {

constexpr size_t kHeaderBytes = 32;
constexpr size_t kMinPageSize = 64;

Status ErrnoStatus(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}

// Full-length pread/pwrite wrappers (retry on partial transfers / EINTR).
Status PreadAll(int fd, void* buf, size_t n, uint64_t off,
                const std::string& path) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", path);
    }
    if (r == 0) return Status::IOError("short read from " + path);
    p += r;
    n -= static_cast<size_t>(r);
    off += static_cast<uint64_t>(r);
  }
  return Status::OK();
}

Status PwriteAll(int fd, const void* buf, size_t n, uint64_t off,
                 const std::string& path) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    ssize_t r = ::pwrite(fd, p, n, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", path);
    }
    p += r;
    n -= static_cast<size_t>(r);
    off += static_cast<uint64_t>(r);
  }
  return Status::OK();
}

}  // namespace

PageFile::PageFile(std::string path, int fd, size_t page_size,
                   uint64_t num_pages)
    : path_(std::move(path)),
      fd_(fd),
      page_size_(page_size),
      num_pages_(num_pages) {}

PageFile::~PageFile() {
  Status s = Sync();
  if (!s.ok()) RASED_LOG(Warning) << "PageFile close: " << s.ToString();
  ::close(fd_);
}

Result<std::unique_ptr<PageFile>> PageFile::Create(const std::string& path,
                                                   size_t page_size) {
  if (page_size < kMinPageSize) {
    return Status::InvalidArgument(
        StrFormat("page_size %zu below minimum %zu", page_size, kMinPageSize));
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return ErrnoStatus("create", path);
  auto file = std::unique_ptr<PageFile>(new PageFile(path, fd, page_size, 0));
  Status s = file->WriteHeader();
  if (!s.ok()) return s;
  return file;
}

Result<std::unique_ptr<PageFile>> PageFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return ErrnoStatus("open", path);
  unsigned char header[kHeaderBytes];
  Status s = PreadAll(fd, header, sizeof(header), 0, path);
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  uint32_t magic, version, crc;
  uint64_t page_size, num_pages;
  std::memcpy(&magic, header + 0, 4);
  std::memcpy(&version, header + 4, 4);
  std::memcpy(&page_size, header + 8, 8);
  std::memcpy(&num_pages, header + 16, 8);
  std::memcpy(&crc, header + 24, 4);
  if (magic != kMagic || version > kVersion) {
    ::close(fd);
    return Status::Corruption("bad page file header in " + path);
  }
  if (crc != Crc32c(header, 24)) {
    ::close(fd);
    return Status::Corruption("page file header checksum mismatch in " + path);
  }
  if (version < kMinSupportedVersion) {
    ::close(fd);
    return Status::NotSupported(
        StrFormat("page file %s is format v%u; v%u or later is required",
                  path.c_str(), version, kMinSupportedVersion));
  }
  return std::unique_ptr<PageFile>(
      new PageFile(path, fd, static_cast<size_t>(page_size), num_pages));
}

Status PageFile::WriteHeader() {
  unsigned char header[kHeaderBytes] = {0};
  uint32_t magic = kMagic, version = kVersion;
  uint64_t page_size = page_size_, pages = num_pages();
  std::memcpy(header + 0, &magic, 4);
  std::memcpy(header + 4, &version, 4);
  std::memcpy(header + 8, &page_size, 8);
  std::memcpy(header + 16, &pages, 8);
  uint32_t crc = Crc32c(header, 24);
  std::memcpy(header + 24, &crc, 4);
  return PwriteAll(fd_, header, sizeof(header), 0, path_);
}

Result<PageId> PageFile::AllocatePage() { return AllocatePages(1); }

Result<PageId> PageFile::AllocatePages(size_t count) {
  if (count == 0) {
    return Status::InvalidArgument("AllocatePages requires count >= 1");
  }
  PageId first = num_pages() + 1;  // page ids are 1-based; 0 is the header
  std::vector<unsigned char> zero(count * page_size_, 0);
  uint32_t crc = Crc32c(zero.data(), payload_size());
  for (size_t k = 0; k < count; ++k) {
    std::memcpy(zero.data() + k * page_size_ + payload_size(), &crc, 4);
  }
  RASED_RETURN_IF_ERROR(
      PwriteAll(fd_, zero.data(), zero.size(), first * page_size_, path_));
  num_pages_.store(first + count - 1, std::memory_order_release);
  return first;
}

Status PageFile::WritePage(PageId id, const void* payload, size_t n) {
  if (id == kInvalidPageId || id > num_pages()) {
    return Status::OutOfRange(
        StrFormat("page %llu out of range (have %llu)",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(num_pages())));
  }
  if (n > payload_size()) {
    return Status::InvalidArgument(
        StrFormat("payload %zu exceeds page payload %zu", n, payload_size()));
  }
  std::vector<unsigned char> buf(page_size_, 0);
  std::memcpy(buf.data(), payload, n);
  uint32_t crc = Crc32c(buf.data(), payload_size());
  std::memcpy(buf.data() + payload_size(), &crc, 4);
  return PwriteAll(fd_, buf.data(), page_size_, id * page_size_, path_);
}

Status PageFile::ReadPage(PageId id, void* payload) const {
  if (id == kInvalidPageId || id > num_pages()) {
    return Status::OutOfRange(
        StrFormat("page %llu out of range (have %llu)",
                  static_cast<unsigned long long>(id),
                  static_cast<unsigned long long>(num_pages())));
  }
  std::vector<unsigned char> buf(page_size_);
  RASED_RETURN_IF_ERROR(
      PreadAll(fd_, buf.data(), page_size_, id * page_size_, path_));
  uint32_t stored;
  std::memcpy(&stored, buf.data() + payload_size(), 4);
  if (stored != Crc32c(buf.data(), payload_size())) {
    return Status::Corruption(
        StrFormat("checksum mismatch on page %llu of %s",
                  static_cast<unsigned long long>(id), path_.c_str()));
  }
  std::memcpy(payload, buf.data(), payload_size());
  return Status::OK();
}

Status PageFile::ReadPages(PageId first, size_t count,
                           unsigned char* pages) const {
  if (count == 0) return Status::OK();
  PageId last = first + count - 1;
  if (first == kInvalidPageId || last < first || last > num_pages()) {
    return Status::OutOfRange(
        StrFormat("page run [%llu, %llu] out of range (have %llu)",
                  static_cast<unsigned long long>(first),
                  static_cast<unsigned long long>(last),
                  static_cast<unsigned long long>(num_pages())));
  }
  RASED_RETURN_IF_ERROR(PreadAll(fd_, pages, count * page_size_,
                                 first * page_size_, path_));
  for (size_t i = 0; i < count; ++i) {
    const unsigned char* page = pages + i * page_size_;
    uint32_t stored;
    std::memcpy(&stored, page + payload_size(), 4);
    if (stored != Crc32c(page, payload_size())) {
      return Status::Corruption(
          StrFormat("checksum mismatch on page %llu of %s",
                    static_cast<unsigned long long>(first + i),
                    path_.c_str()));
    }
  }
  return Status::OK();
}

Status PageFile::Sync() {
  RASED_RETURN_IF_ERROR(WriteHeader());
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  return Status::OK();
}

}  // namespace rased
