#include "io/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <dirent.h>

#include "blocking/lsh_blocking.h"
#include "io/pclk.h"
#include "obs/metrics.h"

namespace pprl::io {

namespace {

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsDouble(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

std::string Offset(uint64_t offset) {
  return " at offset " + std::to_string(offset);
}

void AppendSection(std::vector<uint8_t>* out, CheckpointSection type,
                   const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> header;
  header.reserve(kCheckpointSectionHeaderBytes);
  PutU32(&header, static_cast<uint32_t>(type));
  PutU32(&header, 0);  // reserved
  PutU64(&header, payload.size());
  PutU64(&header, Fnv1a64(payload.data(), payload.size()));
  PutU64(&header, Fnv1a64(header.data(), header.size()));
  out->insert(out->end(), header.begin(), header.end());
  out->insert(out->end(), payload.begin(), payload.end());
}

struct CheckpointMetrics {
  obs::Counter& writes = obs::GlobalMetrics().GetCounter(
      "pprl_checkpoint_writes_total", "checkpoint snapshots written");
  obs::Counter& write_failures = obs::GlobalMetrics().GetCounter(
      "pprl_checkpoint_write_failures_total",
      "checkpoint writes that failed (disk full, I/O errors)");
  obs::Gauge& bytes = obs::GlobalMetrics().GetGauge(
      "pprl_checkpoint_bytes", "size of the last checkpoint written");
};

CheckpointMetrics& Metrics() {
  static CheckpointMetrics metrics;
  return metrics;
}

Status WriteFailed(const Status& status) {
  Metrics().write_failures.Increment();
  return status;
}

/// Re-raises a nested decode error with checkpoint context, keeping the
/// inner error's type (so corruption stays kIoError, truncation
/// kOutOfRange, ...).
Status WithContext(const std::string& context, const Status& inner) {
  const std::string msg = context + ": " + inner.message();
  switch (inner.code()) {
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(msg);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(msg);
    case StatusCode::kProtocolViolation:
      return Status::ProtocolViolation(msg);
    case StatusCode::kIoError:
      return Status::IoError(msg);
    default:
      return Status::Internal(msg);
  }
}

}  // namespace

std::vector<uint8_t> EncodeCheckpoint(const OnlineSnapshot& snapshot) {
  std::vector<uint8_t> out;
  out.reserve(kCheckpointHeaderBytes);
  PutU32(&out, kCheckpointMagic);
  PutU32(&out, kCheckpointVersion);
  PutU64(&out, snapshot.wal_sequence);
  PutU32(&out, snapshot.filter_bits);
  PutU32(&out, snapshot.lsh_tables);
  PutU32(&out, snapshot.lsh_bits_per_key);
  PutU32(&out, 4);  // section count
  PutU64(&out, snapshot.lsh_seed);
  PutU64(&out, DoubleBits(snapshot.dice_threshold));
  PutU64(&out, 0);  // reserved
  PutU64(&out, Fnv1a64(out.data(), out.size()));

  AppendSection(&out, CheckpointSection::kRows,
                EncodePclk(snapshot.rows, /*include_popcounts=*/false));

  std::vector<uint8_t> databases;
  PutU32(&databases, static_cast<uint32_t>(snapshot.database_names.size()));
  for (size_t i = 0; i < snapshot.database_names.size(); ++i) {
    const std::string& name = snapshot.database_names[i];
    PutU32(&databases, static_cast<uint32_t>(name.size()));
    databases.insert(databases.end(), name.begin(), name.end());
    PutU32(&databases, snapshot.database_sizes[i]);
  }
  AppendSection(&out, CheckpointSection::kDatabases, databases);

  const size_t rows = snapshot.parent.size();
  std::vector<uint8_t> partition;
  partition.reserve(8 + rows * 8 + (rows + 7) / 8 + 16);
  PutU64(&partition, rows);
  for (uint32_t p : snapshot.parent) PutU32(&partition, p);
  for (uint32_t db : snapshot.row_database) PutU32(&partition, db);
  for (size_t i = 0; i < rows; i += 8) {
    uint8_t byte = 0;
    for (size_t b = 0; b < 8 && i + b < rows; ++b) {
      if (snapshot.linked[i + b]) byte |= static_cast<uint8_t>(1u << b);
    }
    partition.push_back(byte);
  }
  PutU64(&partition, snapshot.edges);
  PutU64(&partition, snapshot.comparisons);
  AppendSection(&out, CheckpointSection::kPartition, partition);

  std::vector<uint8_t> lsh;
  PutU64(&lsh, snapshot.band_checksum);
  AppendSection(&out, CheckpointSection::kLshState, lsh);

  return out;
}

Result<OnlineSnapshot> DecodeCheckpoint(const uint8_t* data, size_t size,
                                        const std::string& origin) {
  if (size < kCheckpointHeaderBytes) {
    return Status::OutOfRange("checkpoint " + origin + " is truncated: " +
                              std::to_string(size) + " bytes, header needs " +
                              std::to_string(kCheckpointHeaderBytes));
  }
  if (GetU32(data) != kCheckpointMagic) {
    return Status::InvalidArgument("not a checkpoint: " + origin +
                                   " (bad magic" + Offset(0) + ")");
  }
  if (GetU32(data + 4) != kCheckpointVersion) {
    return Status::InvalidArgument("checkpoint " + origin +
                                   " has unsupported version " +
                                   std::to_string(GetU32(data + 4)) + Offset(4));
  }
  if (GetU64(data + 56) != Fnv1a64(data, 56)) {
    return Status::IoError("checkpoint " + origin +
                           " header checksum mismatch" + Offset(56));
  }
  if (GetU64(data + 48) != 0) {
    return Status::ProtocolViolation("checkpoint " + origin +
                                     " has reserved header bits set" +
                                     Offset(48));
  }

  OnlineSnapshot snapshot;
  snapshot.wal_sequence = GetU64(data + 8);
  snapshot.filter_bits = GetU32(data + 16);
  snapshot.lsh_tables = GetU32(data + 20);
  snapshot.lsh_bits_per_key = GetU32(data + 24);
  const uint32_t section_count = GetU32(data + 28);
  snapshot.lsh_seed = GetU64(data + 32);
  snapshot.dice_threshold = BitsDouble(GetU64(data + 40));
  const Status filter_bits = ValidateFilterBits(snapshot.filter_bits);
  if (!filter_bits.ok()) {
    return Status::ProtocolViolation("checkpoint " + origin + " declares " +
                                     filter_bits.message() + Offset(16));
  }
  const Status threshold = ValidateDiceThreshold(snapshot.dice_threshold);
  if (!threshold.ok()) {
    return Status::ProtocolViolation("checkpoint " + origin + " declares " +
                                     threshold.message() + Offset(40));
  }
  const Status geometry =
      ValidateLshGeometry(snapshot.lsh_tables, snapshot.lsh_bits_per_key);
  if (!geometry.ok()) {
    return Status::ProtocolViolation("checkpoint " + origin + " declares " +
                                     geometry.message() + Offset(20));
  }
  if (section_count != 4) {
    return Status::ProtocolViolation("checkpoint " + origin + " declares " +
                                     std::to_string(section_count) +
                                     " sections, format has 4" + Offset(28));
  }

  bool seen[5] = {};
  uint64_t offset = kCheckpointHeaderBytes;
  for (uint32_t s = 0; s < section_count; ++s) {
    if (size - offset < kCheckpointSectionHeaderBytes) {
      return Status::OutOfRange("checkpoint " + origin +
                                " is truncated mid-section-header" +
                                Offset(offset));
    }
    const uint8_t* h = data + offset;
    if (GetU64(h + 24) != Fnv1a64(h, 24)) {
      return Status::IoError("checkpoint " + origin +
                             " section header checksum mismatch" +
                             Offset(offset));
    }
    const uint32_t type = GetU32(h);
    if (GetU32(h + 4) != 0) {
      return Status::ProtocolViolation("checkpoint " + origin +
                                       " section has reserved bits set" +
                                       Offset(offset + 4));
    }
    const uint64_t len = GetU64(h + 8);
    if (size - offset - kCheckpointSectionHeaderBytes < len) {
      return Status::OutOfRange("checkpoint " + origin +
                                " is truncated mid-section" + Offset(offset));
    }
    const uint8_t* payload = h + kCheckpointSectionHeaderBytes;
    if (GetU64(h + 16) != Fnv1a64(payload, len)) {
      return Status::IoError("checkpoint " + origin +
                             " section payload checksum mismatch" +
                             Offset(offset));
    }
    if (type < 1 || type > 4 || seen[type]) {
      return Status::ProtocolViolation("checkpoint " + origin +
                                       " has unknown or repeated section " +
                                       std::to_string(type) + Offset(offset));
    }
    seen[type] = true;

    switch (static_cast<CheckpointSection>(type)) {
      case CheckpointSection::kRows: {
        auto rows = DecodePclk(payload, len);
        if (!rows.ok()) {
          return WithContext(
              "checkpoint " + origin + " rows section" + Offset(offset),
              rows.status());
        }
        snapshot.rows = std::move(*rows);
        break;
      }
      case CheckpointSection::kDatabases: {
        if (len < 4) {
          return Status::OutOfRange("checkpoint " + origin +
                                    " databases section is truncated" +
                                    Offset(offset));
        }
        const uint32_t count = GetU32(payload);
        uint64_t p = 4;
        for (uint32_t i = 0; i < count; ++i) {
          if (len - p < 4) {
            return Status::OutOfRange("checkpoint " + origin +
                                      " databases section is truncated" +
                                      Offset(offset));
          }
          const uint32_t name_len = GetU32(payload + p);
          p += 4;
          if (len - p < static_cast<uint64_t>(name_len) + 4 || name_len == 0) {
            return Status::ProtocolViolation(
                "checkpoint " + origin + " database name is malformed" +
                Offset(offset));
          }
          snapshot.database_names.emplace_back(
              reinterpret_cast<const char*>(payload + p), name_len);
          p += name_len;
          snapshot.database_sizes.push_back(GetU32(payload + p));
          p += 4;
        }
        if (p != len) {
          return Status::ProtocolViolation("checkpoint " + origin +
                                           " databases section has trailing "
                                           "garbage" +
                                           Offset(offset));
        }
        break;
      }
      case CheckpointSection::kPartition: {
        if (len < 8) {
          return Status::OutOfRange("checkpoint " + origin +
                                    " partition section is truncated" +
                                    Offset(offset));
        }
        const uint64_t rows = GetU64(payload);
        const uint64_t expected = 8 + rows * 8 + (rows + 7) / 8 + 16;
        if (len != expected) {
          return Status::ProtocolViolation(
              "checkpoint " + origin + " partition section length mismatch: " +
              std::to_string(len) + " bytes, geometry needs " +
              std::to_string(expected) + Offset(offset));
        }
        const uint8_t* p = payload + 8;
        snapshot.parent.reserve(rows);
        for (uint64_t i = 0; i < rows; ++i, p += 4) {
          snapshot.parent.push_back(GetU32(p));
        }
        snapshot.row_database.reserve(rows);
        for (uint64_t i = 0; i < rows; ++i, p += 4) {
          snapshot.row_database.push_back(GetU32(p));
        }
        snapshot.linked.reserve(rows);
        for (uint64_t i = 0; i < rows; ++i) {
          snapshot.linked.push_back((p[i / 8] >> (i % 8)) & 1);
        }
        p += (rows + 7) / 8;
        snapshot.edges = GetU64(p);
        snapshot.comparisons = GetU64(p + 8);
        break;
      }
      case CheckpointSection::kLshState: {
        if (len != 8) {
          return Status::ProtocolViolation("checkpoint " + origin +
                                           " LSH section length mismatch" +
                                           Offset(offset));
        }
        snapshot.band_checksum = GetU64(payload);
        break;
      }
    }
    offset += kCheckpointSectionHeaderBytes + len;
  }
  if (offset != size) {
    return Status::ProtocolViolation("checkpoint " + origin +
                                     " has trailing garbage" + Offset(offset));
  }

  // Cross-section consistency: a checkpoint that decodes but contradicts
  // itself must fail recovery loudly, never load partially.
  const size_t rows = snapshot.rows.size();
  if (snapshot.parent.size() != rows || snapshot.row_database.size() != rows ||
      snapshot.linked.size() != rows) {
    return Status::ProtocolViolation(
        "checkpoint " + origin + " sections disagree on the row count");
  }
  if (snapshot.rows.bits.num_bits() != snapshot.filter_bits) {
    return Status::ProtocolViolation(
        "checkpoint " + origin + " rows section filter bits disagree with "
        "the header");
  }
  if (snapshot.database_sizes.size() != snapshot.database_names.size()) {
    return Status::ProtocolViolation("checkpoint " + origin +
                                     " database registry is inconsistent");
  }
  std::vector<uint64_t> counted(snapshot.database_names.size(), 0);
  for (size_t i = 0; i < rows; ++i) {
    if (snapshot.parent[i] > i) {
      return Status::ProtocolViolation(
          "checkpoint " + origin + " union-find parent of row " +
          std::to_string(i) + " points forward");
    }
    if (snapshot.row_database[i] >= snapshot.database_names.size()) {
      return Status::ProtocolViolation(
          "checkpoint " + origin + " row " + std::to_string(i) +
          " names an unregistered database");
    }
    ++counted[snapshot.row_database[i]];
  }
  for (size_t d = 0; d < counted.size(); ++d) {
    if (counted[d] != snapshot.database_sizes[d]) {
      return Status::ProtocolViolation(
          "checkpoint " + origin + " database '" +
          snapshot.database_names[d] + "' size disagrees with its rows");
    }
  }
  return snapshot;
}

std::string CheckpointPath(const std::string& dir, uint64_t wal_sequence) {
  char name[64];
  std::snprintf(name, sizeof(name), "checkpoint-%020llu.pckp",
                static_cast<unsigned long long>(wal_sequence));
  return dir + "/" + name;
}

Status WriteCheckpointFile(const std::string& dir,
                           const OnlineSnapshot& snapshot,
                           std::string* final_path) {
  const std::vector<uint8_t> data = EncodeCheckpoint(snapshot);
  const std::string path = CheckpointPath(dir, snapshot.wal_sequence);
  const std::string tmp = path + ".tmp";

  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return WriteFailed(ErrnoStatus("cannot create", tmp));
  const uint8_t* p = data.data();
  size_t remaining = data.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status failed = ErrnoStatus("cannot write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return WriteFailed(failed);
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status failed = ErrnoStatus("cannot fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return WriteFailed(failed);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status failed = ErrnoStatus("cannot rename into place", tmp);
    ::unlink(tmp.c_str());
    return WriteFailed(failed);
  }
  // fsync the directory so the rename itself survives a machine crash.
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) return WriteFailed(ErrnoStatus("cannot open directory", dir));
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) return WriteFailed(ErrnoStatus("cannot fsync directory", dir));

  Metrics().writes.Increment();
  Metrics().bytes.Set(static_cast<int64_t>(data.size()));
  if (final_path != nullptr) *final_path = path;
  return Status::OK();
}

Result<OnlineSnapshot> ReadCheckpointFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return ErrnoStatus("cannot open checkpoint", path);
  std::vector<uint8_t> data;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return ErrnoStatus("cannot read checkpoint", path);
  return DecodeCheckpoint(data.data(), data.size(), path);
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> checkpoints;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return checkpoints;
    return ErrnoStatus("cannot list checkpoint directory", dir);
  }
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    unsigned long long seq = 0;
    char trailer = 0;
    if (std::sscanf(name.c_str(), "checkpoint-%20llu.pck%c", &seq, &trailer) ==
            2 &&
        trailer == 'p' && name == CheckpointPath("", seq).substr(1)) {
      checkpoints.emplace_back(seq, dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(checkpoints.begin(), checkpoints.end());
  return checkpoints;
}

}  // namespace pprl::io
