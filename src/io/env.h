#ifndef RASED_IO_ENV_H_
#define RASED_IO_ENV_H_

#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace rased {

/// Thin filesystem helpers shared by every on-disk component. All paths are
/// plain POSIX paths; no global state.
namespace env {

/// Reads the entire file into a string.
Result<std::string> ReadFile(const std::string& path);

/// Writes (truncating) the whole buffer to the file.
Status WriteFile(const std::string& path, std::string_view contents);

/// Crash-safe replacement: writes to a temp file in the same directory,
/// fsyncs it, atomically renames it over `path`, then fsyncs the
/// directory. Readers never observe a torn file; a failed open or fsync is
/// an IOError. Used for index catalogs and other metadata.
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// Appends the buffer to the file, creating it when absent.
Status AppendFile(const std::string& path, std::string_view contents);

bool FileExists(const std::string& path);

/// Size in bytes, NotFound when missing.
Result<uint64_t> FileSize(const std::string& path);

/// mkdir -p.
Status CreateDirs(const std::string& path);

/// Non-recursive directory listing (file and subdirectory names, sorted).
Result<std::vector<std::string>> ListDir(const std::string& path);

/// rm -rf; OK when the path does not exist.
Status RemoveAll(const std::string& path);

Status RemoveFile(const std::string& path);

/// Creates a fresh unique directory under the system temp dir with the
/// given prefix and returns its path.
Result<std::string> MakeTempDir(const std::string& prefix);

/// Joins two path fragments with exactly one '/'.
std::string JoinPath(const std::string& a, const std::string& b);

}  // namespace env

/// RAII temp directory: created on construction, recursively removed on
/// destruction. Aborts construction failure via valid()==false.
class TempDir {
 public:
  explicit TempDir(const std::string& prefix = "rased");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  bool valid() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace rased

#endif  // RASED_IO_ENV_H_
