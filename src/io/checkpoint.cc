#include "io/checkpoint.h"

#include "blocking/lsh_blocking.h"
#include "common/wire.h"
#include "io/durable_file.h"
#include "io/pclk.h"
#include "obs/metrics.h"

namespace pprl::io {

namespace {

std::string Offset(uint64_t offset) {
  return " at offset " + std::to_string(offset);
}

void AppendSection(std::vector<uint8_t>* out, CheckpointSection type,
                   const std::vector<uint8_t>& payload) {
  uint8_t header[kCheckpointSectionHeaderBytes] = {};
  StoreLeU32(header, static_cast<uint32_t>(type));
  StoreLeU64(header + 8, payload.size());  // bytes 4..7 reserved, zero
  StoreLeU64(header + 16, Fnv1a64(payload.data(), payload.size()));
  StoreLeU64(header + 24, Fnv1a64(header, 24));
  out->insert(out->end(), header, header + sizeof(header));
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

}  // namespace

std::vector<uint8_t> EncodeCheckpoint(const OnlineSnapshot& snapshot) {
  std::vector<uint8_t> out(kCheckpointHeaderBytes);
  uint8_t* h = out.data();
  StoreLeU32(h, kCheckpointMagic);
  StoreLeU32(h + 4, kCheckpointVersion);
  StoreLeU64(h + 8, snapshot.wal_sequence);
  StoreLeU32(h + 16, snapshot.filter_bits);
  StoreLeU32(h + 20, snapshot.lsh_tables);
  StoreLeU32(h + 24, snapshot.lsh_bits_per_key);
  StoreLeU32(h + 28, 4);  // section count
  StoreLeU64(h + 32, snapshot.lsh_seed);
  StoreLeF64(h + 40, snapshot.dice_threshold);
  StoreLeU64(h + 56, Fnv1a64(h, 56));  // bytes 48..55 reserved, zero

  AppendSection(&out, CheckpointSection::kRows,
                EncodePclk(snapshot.rows, /*include_popcounts=*/false));

  WireWriter databases;
  databases.PutU32(static_cast<uint32_t>(snapshot.database_names.size()));
  for (size_t i = 0; i < snapshot.database_names.size(); ++i) {
    databases.PutString(snapshot.database_names[i]);
    databases.PutU32(snapshot.database_sizes[i]);
  }
  AppendSection(&out, CheckpointSection::kDatabases, databases.buffer());

  const size_t rows = snapshot.parent.size();
  WireWriter partition;
  partition.PutU64(rows);
  partition.PutU32s(snapshot.parent.data(), rows);
  partition.PutU32s(snapshot.row_database.data(), snapshot.row_database.size());
  for (size_t i = 0; i < rows; i += 8) {
    uint8_t byte = 0;
    for (size_t b = 0; b < 8 && i + b < rows; ++b) {
      if (snapshot.linked[i + b]) byte |= static_cast<uint8_t>(1u << b);
    }
    partition.PutU8(byte);
  }
  partition.PutU64(snapshot.edges);
  partition.PutU64(snapshot.comparisons);
  AppendSection(&out, CheckpointSection::kPartition, partition.buffer());

  WireWriter lsh;
  lsh.PutU64(snapshot.band_checksum);
  AppendSection(&out, CheckpointSection::kLshState, lsh.buffer());
  return out;
}

Result<OnlineSnapshot> DecodeCheckpoint(const uint8_t* data, size_t size,
                                        const std::string& origin) {
  if (size < kCheckpointHeaderBytes) {
    return Status::OutOfRange("checkpoint " + origin + " is truncated: " +
                              std::to_string(size) + " bytes, header needs " +
                              std::to_string(kCheckpointHeaderBytes));
  }
  if (LoadLeU32(data) != kCheckpointMagic) {
    return Status::InvalidArgument("not a checkpoint: " + origin +
                                   " (bad magic" + Offset(0) + ")");
  }
  if (LoadLeU32(data + 4) != kCheckpointVersion) {
    return Status::InvalidArgument("checkpoint " + origin +
                                   " has unsupported version " +
                                   std::to_string(LoadLeU32(data + 4)) + Offset(4));
  }
  if (LoadLeU64(data + 56) != Fnv1a64(data, 56)) {
    return Status::IoError("checkpoint " + origin +
                           " header checksum mismatch" + Offset(56));
  }
  if (LoadLeU64(data + 48) != 0) {
    return Status::ProtocolViolation("checkpoint " + origin +
                                     " has reserved header bits set" +
                                     Offset(48));
  }

  OnlineSnapshot snapshot;
  snapshot.wal_sequence = LoadLeU64(data + 8);
  snapshot.filter_bits = LoadLeU32(data + 16);
  snapshot.lsh_tables = LoadLeU32(data + 20);
  snapshot.lsh_bits_per_key = LoadLeU32(data + 24);
  const uint32_t section_count = LoadLeU32(data + 28);
  snapshot.lsh_seed = LoadLeU64(data + 32);
  snapshot.dice_threshold = LoadLeF64(data + 40);
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
    if (LoadLeU64(h + 24) != Fnv1a64(h, 24)) {
      return Status::IoError("checkpoint " + origin +
                             " section header checksum mismatch" +
                             Offset(offset));
    }
    const uint32_t type = LoadLeU32(h);
    if (LoadLeU32(h + 4) != 0) {
      return Status::ProtocolViolation("checkpoint " + origin +
                                       " section has reserved bits set" +
                                       Offset(offset + 4));
    }
    const uint64_t len = LoadLeU64(h + 8);
    if (size - offset - kCheckpointSectionHeaderBytes < len) {
      return Status::OutOfRange("checkpoint " + origin +
                                " is truncated mid-section" + Offset(offset));
    }
    const uint8_t* payload = h + kCheckpointSectionHeaderBytes;
    if (LoadLeU64(h + 16) != Fnv1a64(payload, len)) {
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
          return rows.status().WithContext("checkpoint " + origin +
                                           " rows section" + Offset(offset));
        }
        snapshot.rows = std::move(*rows);
        break;
      }
      case CheckpointSection::kDatabases: {
        WireReader r(payload, len);
        uint32_t count = 0;
        if (!r.Read(&count).ok()) {
          return Status::OutOfRange("checkpoint " + origin +
                                    " databases section is truncated" +
                                    Offset(offset));
        }
        for (uint32_t i = 0; i < count; ++i) {
          std::string name;
          uint32_t size = 0;
          if (!r.Read(&name, len).ok() || !r.Read(&size).ok() || name.empty()) {
            return Status::ProtocolViolation(
                "checkpoint " + origin + " database name is malformed" +
                Offset(offset));
          }
          snapshot.database_names.push_back(std::move(name));
          snapshot.database_sizes.push_back(size);
        }
        if (!r.exhausted()) {
          return Status::ProtocolViolation("checkpoint " + origin +
                                           " databases section has trailing "
                                           "garbage" +
                                           Offset(offset));
        }
        break;
      }
      case CheckpointSection::kPartition: {
        WireReader r(payload, len);
        uint64_t rows = 0;
        if (!r.Read(&rows).ok()) {
          return Status::OutOfRange("checkpoint " + origin +
                                    " partition section is truncated" +
                                    Offset(offset));
        }
        // u64 rows, two u32 per row, the linked bitmap, two u64 counters.
        // The row count is bounded by the payload before any size
        // arithmetic, so a crafted count cannot wrap it.
        if (len < 24 || rows > (len - 24) / 8 ||
            len != 8 + rows * 8 + (rows + 7) / 8 + 16) {
          return Status::ProtocolViolation(
              "checkpoint " + origin + " partition section length mismatch: " +
              std::to_string(len) + " bytes cannot hold " + std::to_string(rows) +
              " rows" + Offset(offset));
        }
        r.ReadU32s(rows, &snapshot.parent);  // the length is checked above
        r.ReadU32s(rows, &snapshot.row_database);
        const uint8_t* linked = r.ReadView((rows + 7) / 8).value();
        snapshot.linked.resize(rows);
        for (uint64_t i = 0; i < rows; ++i) {
          snapshot.linked[i] = (linked[i / 8] >> (i % 8)) & 1;
        }
        r.Read(&snapshot.edges);
        r.Read(&snapshot.comparisons);
        break;
      }
      case CheckpointSection::kLshState: {
        if (len != 8) {
          return Status::ProtocolViolation("checkpoint " + origin +
                                           " LSH section length mismatch" +
                                           Offset(offset));
        }
        snapshot.band_checksum = LoadLeU64(payload);
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
  return SequencedFilePath(dir, "checkpoint", "pckp", wal_sequence);
}

Status WriteCheckpointFile(const std::string& dir,
                           const OnlineSnapshot& snapshot,
                           std::string* final_path) {
  const std::vector<uint8_t> data = EncodeCheckpoint(snapshot);
  const std::string path = CheckpointPath(dir, snapshot.wal_sequence);
  const Status written = ReplaceFileDurably(path, data, "checkpoint");
  if (!written.ok()) {
    Metrics().write_failures.Increment();
    return written;
  }
  Metrics().writes.Increment();
  Metrics().bytes.Set(static_cast<int64_t>(data.size()));
  if (final_path != nullptr) *final_path = path;
  return Status::OK();
}

Result<OnlineSnapshot> ReadCheckpointFile(const std::string& path) {
  auto data = ReadWholeFile(path, "checkpoint");
  if (!data.ok()) return data.status();
  return DecodeCheckpoint(data->data(), data->size(), path);
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListCheckpoints(
    const std::string& dir) {
  return ListSequencedFiles(dir, "checkpoint", "pckp", "checkpoint");
}

}  // namespace pprl::io
