#include "io/env.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/logging.h"
#include "util/str_util.h"

namespace rased {
namespace env {

namespace fs = std::filesystem;

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path + " for reading");
  std::string out;
  in.seekg(0, std::ios::end);
  out.resize(static_cast<size_t>(in.tellg()));
  in.seekg(0);
  in.read(out.data(), static_cast<std::streamsize>(out.size()));
  if (!in) return Status::IOError("short read from " + path);
  return out;
}

Status WriteFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

namespace {

/// Opens `path` with `flags` and fsyncs it; any failure is an IOError.
Status FsyncPath(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  const bool synced = ::fsync(fd) == 0;
  const int sync_errno = errno;
  ::close(fd);
  if (!synced) {
    return Status::IOError("fsync " + path + ": " + std::strerror(sync_errno));
  }
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot open " + tmp + " for writing");
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) return Status::IOError("short write to " + tmp);
  }
  // Durability before the rename: fsync the temp file.
  RASED_RETURN_IF_ERROR(FsyncPath(tmp, O_RDONLY));
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::IOError("rename " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  // And after it: fsync the directory, so the new name itself is durable.
  std::string dir = fs::path(path).parent_path().string();
  return FsyncPath(dir.empty() ? "." : dir, O_RDONLY | O_DIRECTORY);
}

Status AppendFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return Status::IOError("cannot open " + path + " for appending");
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) return Status::IOError("short append to " + path);
  return Status::OK();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

Result<uint64_t> FileSize(const std::string& path) {
  std::error_code ec;
  uint64_t size = fs::file_size(path, ec);
  if (ec) return Status::NotFound("file_size(" + path + "): " + ec.message());
  return size;
}

Status CreateDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::IOError("mkdir -p " + path + ": " + ec.message());
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& path) {
  std::error_code ec;
  std::vector<std::string> names;
  for (auto it = fs::directory_iterator(path, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    names.push_back(it->path().filename().string());
  }
  if (ec) return Status::IOError("listdir " + path + ": " + ec.message());
  std::sort(names.begin(), names.end());
  return names;
}

Status RemoveAll(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) return Status::IOError("rm -rf " + path + ": " + ec.message());
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  std::error_code ec;
  if (!fs::remove(path, ec) || ec) {
    return Status::IOError("rm " + path + ": " +
                           (ec ? ec.message() : "no such file"));
  }
  return Status::OK();
}

Result<std::string> MakeTempDir(const std::string& prefix) {
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) return Status::IOError("temp_directory_path: " + ec.message());
  for (int attempt = 0; attempt < 100; ++attempt) {
    fs::path candidate =
        base / StrFormat("%s-%d-%d", prefix.c_str(), ::getpid(), attempt);
    if (fs::create_directory(candidate, ec)) return candidate.string();
  }
  return Status::IOError("cannot create unique temp dir with prefix " +
                         prefix);
}

std::string JoinPath(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  bool a_slash = a.back() == '/';
  bool b_slash = b.front() == '/';
  if (a_slash && b_slash) return a + b.substr(1);
  if (!a_slash && !b_slash) return a + "/" + b;
  return a + b;
}

}  // namespace env

TempDir::TempDir(const std::string& prefix) {
  auto dir = env::MakeTempDir(prefix);
  if (dir.ok()) {
    path_ = std::move(dir).value();
  } else {
    RASED_LOG(Error) << "TempDir: " << dir.status().ToString();
  }
}

TempDir::~TempDir() {
  if (!path_.empty()) {
    Status s = env::RemoveAll(path_);
    if (!s.ok()) RASED_LOG(Warning) << "TempDir cleanup: " << s.ToString();
  }
}

}  // namespace rased
