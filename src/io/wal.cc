#include "io/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>

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

int64_t MonotonicNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// fsyncs the directory entry so a freshly created/renamed file survives a
/// machine crash, not just a process crash.
Status SyncParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("cannot fsync directory", dir);
  return Status::OK();
}

struct WalMetrics {
  obs::Counter& appends = obs::GlobalMetrics().GetCounter(
      "pprl_wal_appends_total", "WAL records journaled");
  obs::Counter& bytes = obs::GlobalMetrics().GetCounter(
      "pprl_wal_bytes_total", "WAL bytes journaled (headers + payloads)");
  obs::Counter& syncs = obs::GlobalMetrics().GetCounter(
      "pprl_wal_syncs_total", "WAL fsync calls (group commit flushes)");
};

WalMetrics& Metrics() {
  static WalMetrics metrics;
  return metrics;
}

std::string Offset(uint64_t offset) {
  return " at offset " + std::to_string(offset);
}

}  // namespace

WalWriter::WalWriter(int fd, std::string path, uint64_t start_sequence,
                     Options options)
    : fd_(fd),
      path_(std::move(path)),
      next_sequence_(start_sequence),
      options_(options),
      last_sync_ns_(MonotonicNanos()) {}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     uint32_t filter_bits,
                                                     uint64_t start_sequence,
                                                     Options options) {
  if (filter_bits == 0) {
    return Status::InvalidArgument("WAL segment needs a filter bit length");
  }
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return ErrnoStatus("cannot create WAL segment", path);

  std::vector<uint8_t> header;
  header.reserve(kWalHeaderBytes);
  PutU32(&header, kWalMagic);
  PutU32(&header, kWalVersion);
  PutU64(&header, start_sequence);
  PutU32(&header, filter_bits);
  PutU32(&header, 0);  // reserved
  PutU64(&header, Fnv1a64(header.data(), header.size()));

  if (::write(fd, header.data(), header.size()) !=
      static_cast<ssize_t>(header.size())) {
    const Status failed = ErrnoStatus("cannot write WAL header to", path);
    ::close(fd);
    ::unlink(path.c_str());
    return failed;
  }
  if (::fsync(fd) != 0) {
    const Status failed = ErrnoStatus("cannot fsync WAL segment", path);
    ::close(fd);
    return failed;
  }
  PPRL_RETURN_IF_ERROR(SyncParentDir(path));

  auto writer = std::unique_ptr<WalWriter>(
      new WalWriter(fd, path, start_sequence, options));
  writer->bytes_written_ = kWalHeaderBytes;
  return writer;
}

Result<uint64_t> WalWriter::Append(WalRecordType type, const uint8_t* payload,
                                   size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (len > kWalMaxPayloadBytes) {
    return Status::InvalidArgument("WAL payload of " + std::to_string(len) +
                                   " bytes exceeds the record cap");
  }
  const uint64_t sequence = next_sequence_;
  std::vector<uint8_t> record;
  record.reserve(kWalRecordHeaderBytes + len);
  PutU32(&record, static_cast<uint32_t>(len));
  PutU32(&record, static_cast<uint32_t>(type));
  PutU64(&record, sequence);
  PutU64(&record, Fnv1a64(payload, len));
  PutU64(&record, Fnv1a64(record.data(), record.size()));
  record.insert(record.end(), payload, payload + len);

  // One write() call: either the whole record reaches the OS or the append
  // fails and nothing is acked. A torn tail can then only come from the
  // kernel itself dying mid-flush, which the reader handles as clean.
  const uint8_t* p = record.data();
  size_t remaining = record.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("cannot append to WAL segment", path_);
    }
    p += n;
    remaining -= static_cast<size_t>(n);
  }
  ++next_sequence_;
  bytes_written_ += record.size();
  Metrics().appends.Increment();
  Metrics().bytes.Increment(record.size());

  if (options_.sync_every_ms <= 0) {
    PPRL_RETURN_IF_ERROR(Sync());
  } else {
    const int64_t now = MonotonicNanos();
    if (now - last_sync_ns_ >=
        static_cast<int64_t>(options_.sync_every_ms) * 1000000) {
      PPRL_RETURN_IF_ERROR(Sync());
    }
  }
  return sequence;
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (::fsync(fd_) != 0) return ErrnoStatus("cannot fsync WAL segment", path_);
  last_sync_ns_ = MonotonicNanos();
  ++syncs_;
  Metrics().syncs.Increment();
  return Status::OK();
}

Result<WalSegment> ReadWalFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return ErrnoStatus("cannot open WAL segment", path);
  std::vector<uint8_t> data;
  uint8_t buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return ErrnoStatus("cannot read WAL segment", path);

  if (data.size() < kWalHeaderBytes) {
    return Status::OutOfRange("WAL segment " + path + " is truncated: " +
                              std::to_string(data.size()) +
                              " bytes, header needs " +
                              std::to_string(kWalHeaderBytes));
  }
  if (GetU32(data.data()) != kWalMagic) {
    return Status::InvalidArgument("not a WAL segment: " + path +
                                   " (bad magic" + Offset(0) + ")");
  }
  if (GetU32(data.data() + 4) != kWalVersion) {
    return Status::InvalidArgument(
        "WAL segment " + path + " has unsupported version " +
        std::to_string(GetU32(data.data() + 4)) + Offset(4));
  }
  if (GetU64(data.data() + 24) != Fnv1a64(data.data(), 24)) {
    return Status::IoError("WAL segment " + path +
                           " header checksum mismatch" + Offset(24));
  }
  if (GetU32(data.data() + 20) != 0) {
    return Status::ProtocolViolation("WAL segment " + path +
                                     " has reserved header bits set" +
                                     Offset(20));
  }

  WalSegment segment;
  segment.start_sequence = GetU64(data.data() + 8);
  segment.filter_bits = GetU32(data.data() + 16);
  const Status filter_bits = ValidateFilterBits(segment.filter_bits);
  if (!filter_bits.ok()) {
    return Status::ProtocolViolation("WAL segment " + path + " declares " +
                                     filter_bits.message() + Offset(16));
  }

  uint64_t offset = kWalHeaderBytes;
  uint64_t expected_sequence = segment.start_sequence;
  while (offset < data.size()) {
    const uint64_t remaining = data.size() - offset;
    if (remaining < kWalRecordHeaderBytes) {
      // Clean torn tail: the crash cut the final record mid-header.
      segment.torn_offset = offset;
      segment.torn_bytes = remaining;
      return segment;
    }
    const uint8_t* h = data.data() + offset;
    if (GetU64(h + 24) != Fnv1a64(h, 24)) {
      return Status::IoError("WAL segment " + path +
                             " record header checksum mismatch" +
                             Offset(offset));
    }
    const uint64_t len = GetU32(h);
    const uint32_t type = GetU32(h + 4);
    const uint64_t sequence = GetU64(h + 8);
    if (len > kWalMaxPayloadBytes) {
      return Status::ProtocolViolation("WAL segment " + path +
                                       " record declares oversized payload" +
                                       Offset(offset));
    }
    if (sequence != expected_sequence) {
      return Status::ProtocolViolation(
          "WAL segment " + path + " sequence gap: expected " +
          std::to_string(expected_sequence) + ", found " +
          std::to_string(sequence) + Offset(offset));
    }
    if (remaining - kWalRecordHeaderBytes < len) {
      // Clean torn tail: the crash cut the final record mid-payload. The
      // header checksum above proves the length field is intact, so this
      // cannot be mistaken corruption.
      segment.torn_offset = offset;
      segment.torn_bytes = remaining;
      return segment;
    }
    const uint8_t* payload = h + kWalRecordHeaderBytes;
    if (GetU64(h + 16) != Fnv1a64(payload, len)) {
      return Status::IoError("WAL segment " + path +
                             " record payload checksum mismatch" +
                             Offset(offset));
    }
    WalRecord record;
    record.type = type;
    record.sequence = sequence;
    record.offset = offset;
    record.payload.assign(payload, payload + len);
    segment.records.push_back(std::move(record));
    offset += kWalRecordHeaderBytes + len;
    ++expected_sequence;
  }
  segment.torn_offset = data.size();
  segment.torn_bytes = 0;
  return segment;
}

std::string WalSegmentPath(const std::string& dir, uint64_t start_sequence) {
  char name[64];
  std::snprintf(name, sizeof(name), "wal-%020llu.pwal",
                static_cast<unsigned long long>(start_sequence));
  return dir + "/" + name;
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListWalSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return segments;
    return ErrnoStatus("cannot list WAL directory", dir);
  }
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    unsigned long long seq = 0;
    char trailer = 0;
    if (std::sscanf(name.c_str(), "wal-%20llu.pwa%c", &seq, &trailer) == 2 &&
        trailer == 'l' && name == WalSegmentPath("", seq).substr(1)) {
      segments.emplace_back(seq, dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(segments.begin(), segments.end());
  return segments;
}

std::vector<uint8_t> EncodeWalHello(const std::string& party) {
  std::vector<uint8_t> payload;
  payload.reserve(4 + party.size());
  PutU32(&payload, static_cast<uint32_t>(party.size()));
  payload.insert(payload.end(), party.begin(), party.end());
  return payload;
}

Result<std::string> DecodeWalHello(const std::vector<uint8_t>& payload) {
  if (payload.size() < 4) {
    return Status::OutOfRange("WAL hello payload is truncated");
  }
  const uint32_t len = GetU32(payload.data());
  if (payload.size() != 4u + len) {
    return Status::ProtocolViolation("WAL hello length mismatch");
  }
  if (len == 0) {
    return Status::ProtocolViolation("WAL hello names an empty owner");
  }
  return std::string(payload.begin() + 4, payload.end());
}

std::vector<uint8_t> EncodeWalAppendBatch(uint32_t database,
                                          const EncodedDatabase& rows,
                                          size_t begin, size_t end) {
  const size_t count = end - begin;
  const size_t filter_bits = count == 0 ? 0 : rows.filters[begin].size();
  std::vector<uint8_t> payload;
  payload.reserve(16 + count * (8 + PackedRowBytes(filter_bits)));
  PutU32(&payload, database);
  PutU32(&payload, static_cast<uint32_t>(count));
  PutU32(&payload, static_cast<uint32_t>(filter_bits));
  PutU32(&payload, 0);  // reserved
  for (size_t i = begin; i < end; ++i) {
    PutU64(&payload, rows.ids[i]);
    const BitVector& filter = rows.filters[i];
    const size_t at = payload.size();
    payload.resize(at + PackedRowBytes(filter.size()));
    StorePackedRow(filter.words().data(), filter.size(), payload.data() + at);
  }
  return payload;
}

Result<WalAppendBatch> DecodeWalAppendBatch(
    const std::vector<uint8_t>& payload) {
  if (payload.size() < 16) {
    return Status::OutOfRange("WAL append-batch payload is truncated");
  }
  WalAppendBatch batch;
  batch.database = GetU32(payload.data());
  const uint32_t count = GetU32(payload.data() + 4);
  const uint32_t filter_bits = GetU32(payload.data() + 8);
  if (GetU32(payload.data() + 12) != 0) {
    return Status::ProtocolViolation(
        "WAL append-batch has reserved bits set");
  }
  if (count == 0) {
    return Status::ProtocolViolation("WAL append-batch holds zero records");
  }
  if (filter_bits == 0) {
    return Status::ProtocolViolation(
        "WAL append-batch declares zero filter bits");
  }
  const uint64_t filter_bytes = PackedRowBytes(filter_bits);
  const uint64_t expected = 16 + static_cast<uint64_t>(count) * (8 + filter_bytes);
  if (payload.size() != expected) {
    return Status::ProtocolViolation(
        "WAL append-batch length mismatch: " + std::to_string(payload.size()) +
        " bytes, geometry needs " + std::to_string(expected));
  }
  batch.rows.ids.reserve(count);
  batch.rows.filters.reserve(count);
  const uint8_t* p = payload.data() + 16;
  for (uint32_t i = 0; i < count; ++i, p += 8 + filter_bytes) {
    batch.rows.ids.push_back(GetU64(p));
    batch.rows.filters.push_back(BitVectorFromPackedRow(p + 8, filter_bits));
  }
  return batch;
}

}  // namespace pprl::io
