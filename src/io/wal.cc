#include "io/wal.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "blocking/lsh_blocking.h"
#include "common/wire.h"
#include "io/durable_file.h"
#include "obs/metrics.h"

namespace pprl::io {

namespace {

int64_t MonotonicNanos() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
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
  uint8_t header[kWalHeaderBytes] = {};
  StoreLeU32(header, kWalMagic);
  StoreLeU32(header + 4, kWalVersion);
  StoreLeU64(header + 8, start_sequence);
  StoreLeU32(header + 16, filter_bits);
  StoreLeU64(header + 24, Fnv1a64(header, 24));  // bytes 20..23 reserved, zero
  auto fd = CreateDurableFile(path, header, sizeof(header), "WAL segment");
  if (!fd.ok()) return fd.status();

  auto writer = std::unique_ptr<WalWriter>(
      new WalWriter(*fd, path, start_sequence, options));
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
  std::vector<uint8_t> record(kWalRecordHeaderBytes + len);
  StoreLeU32(record.data(), static_cast<uint32_t>(len));
  StoreLeU32(record.data() + 4, static_cast<uint32_t>(type));
  StoreLeU64(record.data() + 8, sequence);
  StoreLeU64(record.data() + 16, Fnv1a64(payload, len));
  StoreLeU64(record.data() + 24, Fnv1a64(record.data(), 24));
  if (len > 0) std::memcpy(record.data() + kWalRecordHeaderBytes, payload, len);

  // One buffer: either the whole record reaches the OS or the append
  // fails and nothing is acked. A torn tail can then only come from the
  // kernel itself dying mid-flush, which the reader handles as clean.
  PPRL_RETURN_IF_ERROR(WriteAll(fd_, record.data(), record.size(), "WAL segment", path_));
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
  if (::fsync(fd_) != 0) {
    return Status::IoError("cannot fsync WAL segment " + path_ + ": " +
                           std::strerror(errno));
  }
  last_sync_ns_ = MonotonicNanos();
  ++syncs_;
  Metrics().syncs.Increment();
  return Status::OK();
}

Result<WalSegment> ReadWalFile(const std::string& path) {
  auto file = ReadWholeFile(path, "WAL segment");
  if (!file.ok()) return file.status();
  const std::vector<uint8_t>& data = *file;
  if (data.size() < kWalHeaderBytes) {
    return Status::OutOfRange("WAL segment " + path + " is truncated: " +
                              std::to_string(data.size()) +
                              " bytes, header needs " +
                              std::to_string(kWalHeaderBytes));
  }
  if (LoadLeU32(data.data()) != kWalMagic) {
    return Status::InvalidArgument("not a WAL segment: " + path +
                                   " (bad magic" + Offset(0) + ")");
  }
  if (LoadLeU32(data.data() + 4) != kWalVersion) {
    return Status::InvalidArgument(
        "WAL segment " + path + " has unsupported version " +
        std::to_string(LoadLeU32(data.data() + 4)) + Offset(4));
  }
  if (LoadLeU64(data.data() + 24) != Fnv1a64(data.data(), 24)) {
    return Status::IoError("WAL segment " + path +
                           " header checksum mismatch" + Offset(24));
  }
  if (LoadLeU32(data.data() + 20) != 0) {
    return Status::ProtocolViolation("WAL segment " + path +
                                     " has reserved header bits set" +
                                     Offset(20));
  }

  WalSegment segment;
  segment.start_sequence = LoadLeU64(data.data() + 8);
  segment.filter_bits = LoadLeU32(data.data() + 16);
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
    if (LoadLeU64(h + 24) != Fnv1a64(h, 24)) {
      return Status::IoError("WAL segment " + path +
                             " record header checksum mismatch" +
                             Offset(offset));
    }
    const uint64_t len = LoadLeU32(h);
    const uint32_t type = LoadLeU32(h + 4);
    const uint64_t sequence = LoadLeU64(h + 8);
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
    if (LoadLeU64(h + 16) != Fnv1a64(payload, len)) {
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
  return SequencedFilePath(dir, "wal", "pwal", start_sequence);
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListWalSegments(
    const std::string& dir) {
  return ListSequencedFiles(dir, "wal", "pwal", "WAL");
}

std::vector<uint8_t> EncodeWalHello(const std::string& party) {
  WireWriter w;
  w.PutString(party);
  return w.Take();
}

Result<std::string> DecodeWalHello(const std::vector<uint8_t>& payload) {
  if (payload.size() < 4) {
    return Status::OutOfRange("WAL hello payload is truncated");
  }
  const uint32_t len = LoadLeU32(payload.data());
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
  std::vector<uint8_t> payload(16 + count * PackedRecordBytes(filter_bits));
  StoreLeU32(payload.data(), database);
  StoreLeU32(payload.data() + 4, static_cast<uint32_t>(count));
  StoreLeU32(payload.data() + 8, static_cast<uint32_t>(filter_bits));
  // bytes 12..15 reserved, zero
  StorePackedRecords(rows, begin, end, filter_bits, payload.data() + 16);
  return payload;
}

Result<WalAppendBatch> DecodeWalAppendBatch(
    const std::vector<uint8_t>& payload) {
  if (payload.size() < 16) {
    return Status::OutOfRange("WAL append-batch payload is truncated");
  }
  WalAppendBatch batch;
  batch.database = LoadLeU32(payload.data());
  const uint32_t count = LoadLeU32(payload.data() + 4);
  const uint32_t filter_bits = LoadLeU32(payload.data() + 8);
  if (LoadLeU32(payload.data() + 12) != 0) {
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
  const uint64_t expected = 16 + static_cast<uint64_t>(count) * PackedRecordBytes(filter_bits);
  if (payload.size() != expected) {
    return Status::ProtocolViolation(
        "WAL append-batch length mismatch: " + std::to_string(payload.size()) +
        " bytes, geometry needs " + std::to_string(expected));
  }
  LoadPackedRecords(payload.data() + 16, count, filter_bits, &batch.rows);
  return batch;
}

}  // namespace pprl::io
