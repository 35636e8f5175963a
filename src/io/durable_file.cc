#include "io/durable_file.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace pprl::io {

namespace {

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// fsyncs the directory holding `path`, so a freshly created or renamed
/// entry survives a machine crash, not just a process crash.
Status SyncParentDirectory(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("cannot fsync directory", dir);
  return Status::OK();
}

}  // namespace

Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path,
                                           const std::string& what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("cannot open " + what, path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status failed = ErrnoStatus("cannot stat " + what, path);
    ::close(fd);
    return failed;
  }
  std::vector<uint8_t> data(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const Status failed = ErrnoStatus("cannot read " + what, path);
      ::close(fd);
      return failed;
    }
    if (n == 0) break;  // the file shrank since fstat
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(got);
  return data;
}

Status WriteAll(int fd, const uint8_t* data, size_t len, const std::string& what,
                const std::string& path) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoStatus("cannot write " + what, path);
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<int> CreateDurableFile(const std::string& path, const uint8_t* data,
                              size_t len, const std::string& what) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return ErrnoStatus("cannot create " + what, path);
  const Status written = WriteAll(fd, data, len, what, path);
  if (!written.ok()) {
    ::close(fd);
    ::unlink(path.c_str());
    return written;
  }
  const Status synced = ::fsync(fd) == 0 ? SyncParentDirectory(path)
                                         : ErrnoStatus("cannot fsync " + what, path);
  if (!synced.ok()) {
    ::close(fd);
    return synced;
  }
  return fd;
}

Status ReplaceFileDurably(const std::string& path, const std::vector<uint8_t>& data,
                          const std::string& what) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return ErrnoStatus("cannot create " + what, tmp);
  Status status = WriteAll(fd, data.data(), data.size(), what, tmp);
  if (status.ok() && ::fsync(fd) != 0) status = ErrnoStatus("cannot fsync " + what, tmp);
  ::close(fd);
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = ErrnoStatus("cannot rename into place " + what, tmp);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  // The rename itself must survive a machine crash too.
  return SyncParentDirectory(path);
}

std::string SequencedFilePath(const std::string& dir, std::string_view prefix,
                              std::string_view ext, uint64_t sequence) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%020llu",
                static_cast<unsigned long long>(sequence));
  return dir + "/" + std::string(prefix) + "-" + digits + "." + std::string(ext);
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListSequencedFiles(
    const std::string& dir, std::string_view prefix, std::string_view ext,
    const std::string& what) {
  std::vector<std::pair<uint64_t, std::string>> files;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return files;
    return ErrnoStatus("cannot list " + what + " directory", dir);
  }
  constexpr size_t kDigits = 20;
  while (const struct dirent* entry = ::readdir(d)) {
    const std::string_view name = entry->d_name;
    if (name.size() != prefix.size() + 1 + kDigits + 1 + ext.size()) continue;
    const char* digits = name.data() + prefix.size() + 1;
    uint64_t sequence = 0;
    const auto [end, error] = std::from_chars(digits, digits + kDigits, sequence);
    if (error != std::errc() || end != digits + kDigits) continue;
    // Exactly the canonical name: no *.tmp leftover or look-alike passes.
    const std::string path = SequencedFilePath(dir, prefix, ext, sequence);
    if (path.compare(path.size() - name.size(), name.size(), name) == 0) {
      files.emplace_back(sequence, path);
    }
  }
  ::closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace pprl::io
