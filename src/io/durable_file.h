#ifndef PPRL_IO_DURABLE_FILE_H_
#define PPRL_IO_DURABLE_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace pprl::io {

/// The file plumbing of the durable online state (WAL segments and
/// checkpoints): whole-file reads, EINTR-safe writes, the create and
/// replace disciplines that survive a machine crash, and the naming of
/// sequence-numbered files. Errors are kIoError and name the file kind
/// (`what`), the path and errno's text.

/// Reads the whole file with one read sized by fstat.
Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path,
                                           const std::string& what);

/// Writes all `len` bytes to `fd`, retrying on EINTR and short writes.
Status WriteAll(int fd, const uint8_t* data, size_t len, const std::string& what,
                const std::string& path);

/// Creates (truncates) `path` holding `len` bytes of `data`, fsyncs it
/// and then its directory entry, and returns the descriptor, open for
/// appending. A failed write removes the file again.
Result<int> CreateDurableFile(const std::string& path, const uint8_t* data,
                              size_t len, const std::string& what);

/// Replaces `path` with `data`: write "<path>.tmp", fsync, rename over
/// `path`, fsync the directory. A crash leaves either the old state (plus
/// at most a *.tmp that the listers ignore) or the complete new file.
Status ReplaceFileDurably(const std::string& path, const std::vector<uint8_t>& data,
                          const std::string& what);

/// "<dir>/<prefix>-<sequence as 20 digits>.<ext>".
std::string SequencedFilePath(const std::string& dir, std::string_view prefix,
                              std::string_view ext, uint64_t sequence);

/// The files in `dir` named exactly as SequencedFilePath names them, as
/// (sequence, path), ascending. A missing directory is an empty list.
Result<std::vector<std::pair<uint64_t, std::string>>> ListSequencedFiles(
    const std::string& dir, std::string_view prefix, std::string_view ext,
    const std::string& what);

}  // namespace pprl::io

#endif  // PPRL_IO_DURABLE_FILE_H_
