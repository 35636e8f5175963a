#include "service/protocol.h"

#include <cstring>

#include "blocking/lsh_blocking.h"
#include "net/frame.h"
#include "net/wire.h"

namespace pprl {

namespace {

/// Guard on name strings crossing the wire.
constexpr size_t kMaxNameLen = 256;
/// Guard on error text crossing the wire.
constexpr size_t kMaxErrorLen = 4096;
/// Guard on busy-reason text crossing the wire.
constexpr size_t kMaxReasonLen = 512;

/// One shipment record: a u64 id, then the filter's packed row.
size_t ShipmentRecordBytes(size_t filter_bits) {
  return 8 + PackedRowBytes(filter_bits);
}

void PutShipmentRecord(uint64_t id, const uint64_t* words, size_t filter_bits,
                       uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(id >> (8 * i));
  StorePackedRow(words, filter_bits, out + 8);
}

uint64_t GetLeU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

StatusCode StatusCodeFromWire(uint16_t v) {
  switch (v) {
    case 1: return StatusCode::kInvalidArgument;
    case 2: return StatusCode::kOutOfRange;
    case 3: return StatusCode::kNotFound;
    case 4: return StatusCode::kAlreadyExists;
    case 5: return StatusCode::kFailedPrecondition;
    case 6: return StatusCode::kProtocolViolation;
    case 7: return StatusCode::kIoError;
    default: return StatusCode::kInternal;
  }
}

uint16_t StatusCodeToWire(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument: return 1;
    case StatusCode::kOutOfRange: return 2;
    case StatusCode::kNotFound: return 3;
    case StatusCode::kAlreadyExists: return 4;
    case StatusCode::kFailedPrecondition: return 5;
    case StatusCode::kProtocolViolation: return 6;
    case StatusCode::kIoError: return 7;
    default: return 8;
  }
}

}  // namespace

const char* MessageTypeTag(uint8_t type) {
  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello: return "hello";
    case MessageType::kHelloAck: return "hello-ack";
    case MessageType::kShipmentChunk: return "encoded-filters";
    case MessageType::kShipmentAck: return "shipment-ack";
    case MessageType::kResults: return "match-results";
    case MessageType::kError: return "protocol-error";
    case MessageType::kResume: return "resume";
    case MessageType::kResumeAck: return "resume-ack";
    case MessageType::kBusy: return "busy";
    case MessageType::kAssignPartition: return "assign-partition";
    case MessageType::kPartitionResult: return "partition-result";
    case MessageType::kAppendRecords: return "append-records";
    case MessageType::kQuery: return "link-query";
    case MessageType::kQueryResult: return "query-result";
  }
  return "unknown";
}

std::vector<uint8_t> EncodeHello(const HelloMessage& msg) {
  WireWriter w;
  w.PutU32(msg.protocol_version);
  w.PutString(msg.party);
  w.PutU32(msg.filter_bits);
  w.PutU32(msg.record_count);
  return w.Take();
}

Result<HelloMessage> DecodeHello(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  HelloMessage msg;
  auto version = r.ReadU32();
  if (!version.ok()) return version.status();
  msg.protocol_version = *version;
  auto party = r.ReadString(kMaxNameLen);
  if (!party.ok()) return party.status();
  msg.party = std::move(*party);
  auto bits = r.ReadU32();
  if (!bits.ok()) return bits.status();
  msg.filter_bits = *bits;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  msg.record_count = *count;
  if (!r.exhausted()) return Status::ProtocolViolation("hello: trailing bytes");
  if (msg.party.empty()) return Status::ProtocolViolation("hello: empty party name");
  return msg;
}

std::vector<uint8_t> EncodeHelloAck(const HelloAckMessage& msg) {
  WireWriter w;
  w.PutU32(msg.protocol_version);
  w.PutString(msg.server);
  w.PutU32(msg.expected_owners);
  w.PutU64(msg.session_id);
  w.PutU32(msg.max_chunk_bytes);
  return w.Take();
}

Result<HelloAckMessage> DecodeHelloAck(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  HelloAckMessage msg;
  auto version = r.ReadU32();
  if (!version.ok()) return version.status();
  msg.protocol_version = *version;
  auto server = r.ReadString(kMaxNameLen);
  if (!server.ok()) return server.status();
  msg.server = std::move(*server);
  auto expected = r.ReadU32();
  if (!expected.ok()) return expected.status();
  msg.expected_owners = *expected;
  auto session = r.ReadU64();
  if (!session.ok()) return session.status();
  msg.session_id = *session;
  auto chunk = r.ReadU32();
  if (!chunk.ok()) return chunk.status();
  msg.max_chunk_bytes = *chunk;
  if (!r.exhausted()) return Status::ProtocolViolation("hello-ack: trailing bytes");
  if (msg.session_id == 0) return Status::ProtocolViolation("hello-ack: zero session id");
  if (msg.max_chunk_bytes == 0) {
    return Status::ProtocolViolation("hello-ack: zero max chunk size");
  }
  return msg;
}

std::vector<uint8_t> EncodeShipmentChunk(const ShipmentChunkMessage& msg) {
  WireWriter w;
  w.PutU64(msg.session_id);
  w.PutU64(msg.offset);
  w.PutU8(msg.last ? 1 : 0);
  w.PutU64(ShipmentChunkChecksum(msg.data.data(), msg.data.size()));
  w.PutBytes(msg.data.data(), msg.data.size());
  return w.Take();
}

Result<ShipmentChunkMessage> DecodeShipmentChunk(const std::vector<uint8_t>& payload) {
  if (payload.size() < kShipmentChunkOverheadBytes) {
    return Status::ProtocolViolation("shipment-chunk: payload shorter than header");
  }
  WireReader r(payload);
  ShipmentChunkMessage msg;
  msg.session_id = r.ReadU64().value();
  msg.offset = r.ReadU64().value();
  auto last = r.ReadU8();
  if (*last > 1) return Status::ProtocolViolation("shipment-chunk: bad last flag");
  msg.last = *last == 1;
  msg.checksum = r.ReadU64().value();
  auto data = r.ReadBytes(r.remaining());
  if (!data.ok()) return data.status();
  msg.data = std::move(*data);
  return msg;
}

std::vector<uint8_t> EncodeShipmentAck(const ShipmentAckMessage& msg) {
  WireWriter w;
  w.PutU64(msg.session_id);
  w.PutU64(msg.acked_bytes);
  w.PutU8(msg.complete ? 1 : 0);
  w.PutU32(msg.owners_shipped);
  w.PutU32(msg.expected_owners);
  return w.Take();
}

Result<ShipmentAckMessage> DecodeShipmentAck(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  ShipmentAckMessage msg;
  auto session = r.ReadU64();
  if (!session.ok()) return session.status();
  msg.session_id = *session;
  auto acked = r.ReadU64();
  if (!acked.ok()) return acked.status();
  msg.acked_bytes = *acked;
  auto complete = r.ReadU8();
  if (!complete.ok()) return complete.status();
  if (*complete > 1) return Status::ProtocolViolation("shipment-ack: bad complete flag");
  msg.complete = *complete == 1;
  auto shipped = r.ReadU32();
  if (!shipped.ok()) return shipped.status();
  msg.owners_shipped = *shipped;
  auto expected = r.ReadU32();
  if (!expected.ok()) return expected.status();
  msg.expected_owners = *expected;
  if (!r.exhausted()) return Status::ProtocolViolation("shipment-ack: trailing bytes");
  return msg;
}

std::vector<uint8_t> EncodeResume(const ResumeMessage& msg) {
  WireWriter w;
  w.PutU32(msg.protocol_version);
  w.PutString(msg.party);
  w.PutU64(msg.session_id);
  return w.Take();
}

Result<ResumeMessage> DecodeResume(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  ResumeMessage msg;
  auto version = r.ReadU32();
  if (!version.ok()) return version.status();
  msg.protocol_version = *version;
  auto party = r.ReadString(kMaxNameLen);
  if (!party.ok()) return party.status();
  msg.party = std::move(*party);
  auto session = r.ReadU64();
  if (!session.ok()) return session.status();
  msg.session_id = *session;
  if (!r.exhausted()) return Status::ProtocolViolation("resume: trailing bytes");
  if (msg.party.empty()) return Status::ProtocolViolation("resume: empty party name");
  if (msg.session_id == 0) return Status::ProtocolViolation("resume: zero session id");
  return msg;
}

std::vector<uint8_t> EncodeResumeAck(const ResumeAckMessage& msg) {
  WireWriter w;
  w.PutU64(msg.session_id);
  w.PutU64(msg.acked_bytes);
  w.PutU8(msg.shipment_complete ? 1 : 0);
  return w.Take();
}

Result<ResumeAckMessage> DecodeResumeAck(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  ResumeAckMessage msg;
  auto session = r.ReadU64();
  if (!session.ok()) return session.status();
  msg.session_id = *session;
  auto acked = r.ReadU64();
  if (!acked.ok()) return acked.status();
  msg.acked_bytes = *acked;
  auto complete = r.ReadU8();
  if (!complete.ok()) return complete.status();
  if (*complete > 1) return Status::ProtocolViolation("resume-ack: bad complete flag");
  msg.shipment_complete = *complete == 1;
  if (!r.exhausted()) return Status::ProtocolViolation("resume-ack: trailing bytes");
  return msg;
}

std::vector<uint8_t> EncodeBusy(const BusyMessage& msg) {
  WireWriter w;
  w.PutU32(msg.retry_after_ms);
  std::string reason = msg.reason;
  if (reason.size() > kMaxReasonLen) reason.resize(kMaxReasonLen);
  w.PutString(reason);
  return w.Take();
}

Result<BusyMessage> DecodeBusy(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  BusyMessage msg;
  auto retry = r.ReadU32();
  if (!retry.ok()) return retry.status();
  msg.retry_after_ms = *retry;
  auto reason = r.ReadString(kMaxReasonLen);
  if (!reason.ok()) return reason.status();
  msg.reason = std::move(*reason);
  if (!r.exhausted()) return Status::ProtocolViolation("busy: trailing bytes");
  return msg;
}

std::vector<uint8_t> EncodeAssignPartition(const AssignPartitionMessage& msg) {
  WireWriter w;
  w.PutU32(msg.protocol_version);
  w.PutString(msg.coordinator);
  w.PutU32(msg.worker_index);
  w.PutU32(msg.num_workers);
  w.PutU8(msg.scheme);
  w.PutU32(msg.expected_owners);
  uint64_t threshold_bits = 0;
  static_assert(sizeof(threshold_bits) == sizeof(msg.dice_threshold));
  std::memcpy(&threshold_bits, &msg.dice_threshold, sizeof(threshold_bits));
  w.PutU64(threshold_bits);
  w.PutU32(msg.lsh_tables);
  w.PutU32(msg.lsh_bits_per_key);
  w.PutU64(msg.lsh_seed);
  return w.Take();
}

Result<AssignPartitionMessage> DecodeAssignPartition(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  AssignPartitionMessage msg;
  auto version = r.ReadU32();
  if (!version.ok()) return version.status();
  msg.protocol_version = *version;
  auto coordinator = r.ReadString(kMaxNameLen);
  if (!coordinator.ok()) return coordinator.status();
  msg.coordinator = std::move(*coordinator);
  auto worker = r.ReadU32();
  if (!worker.ok()) return worker.status();
  msg.worker_index = *worker;
  auto workers = r.ReadU32();
  if (!workers.ok()) return workers.status();
  msg.num_workers = *workers;
  auto scheme = r.ReadU8();
  if (!scheme.ok()) return scheme.status();
  if (*scheme > 2) {
    return Status::ProtocolViolation("assign-partition: unknown scheme");
  }
  msg.scheme = *scheme;
  auto owners = r.ReadU32();
  if (!owners.ok()) return owners.status();
  msg.expected_owners = *owners;
  auto threshold_bits = r.ReadU64();
  if (!threshold_bits.ok()) return threshold_bits.status();
  std::memcpy(&msg.dice_threshold, &*threshold_bits, sizeof(msg.dice_threshold));
  auto tables = r.ReadU32();
  if (!tables.ok()) return tables.status();
  msg.lsh_tables = *tables;
  auto bits_per_key = r.ReadU32();
  if (!bits_per_key.ok()) return bits_per_key.status();
  msg.lsh_bits_per_key = *bits_per_key;
  auto seed = r.ReadU64();
  if (!seed.ok()) return seed.status();
  msg.lsh_seed = *seed;
  if (!r.exhausted()) {
    return Status::ProtocolViolation("assign-partition: trailing bytes");
  }
  if (msg.coordinator.empty()) {
    return Status::ProtocolViolation("assign-partition: empty coordinator name");
  }
  if (msg.num_workers == 0 || msg.worker_index >= msg.num_workers) {
    return Status::ProtocolViolation(
        "assign-partition: worker index " + std::to_string(msg.worker_index) +
        " outside ring of " + std::to_string(msg.num_workers));
  }
  const Status threshold = ValidateDiceThreshold(msg.dice_threshold);
  if (!threshold.ok()) {
    return Status::ProtocolViolation("assign-partition: " + threshold.message());
  }
  const Status geometry = ValidateLshGeometry(msg.lsh_tables, msg.lsh_bits_per_key);
  if (!geometry.ok()) {
    return Status::ProtocolViolation("assign-partition: " + geometry.message());
  }
  return msg;
}

std::vector<uint8_t> EncodePartitionResult(const PartitionResultMessage& msg) {
  WireWriter w;
  w.PutU32(msg.worker_index);
  w.PutU64(msg.comparisons);
  w.PutU64(msg.candidate_pairs);
  w.PutU64(msg.pruned_comparisons);
  w.PutU32(static_cast<uint32_t>(msg.edges.size()));
  for (const MatchEdge& e : msg.edges) {
    w.PutU32(e.x.database);
    w.PutU32(e.x.record);
    w.PutU32(e.y.database);
    w.PutU32(e.y.record);
    uint64_t score_bits = 0;
    std::memcpy(&score_bits, &e.score, sizeof(score_bits));
    w.PutU64(score_bits);
  }
  return w.Take();
}

Result<PartitionResultMessage> DecodePartitionResult(
    const std::vector<uint8_t>& payload, size_t max_edges) {
  WireReader r(payload);
  PartitionResultMessage msg;
  auto worker = r.ReadU32();
  if (!worker.ok()) return worker.status();
  msg.worker_index = *worker;
  auto comparisons = r.ReadU64();
  if (!comparisons.ok()) return comparisons.status();
  msg.comparisons = *comparisons;
  auto candidates = r.ReadU64();
  if (!candidates.ok()) return candidates.status();
  msg.candidate_pairs = *candidates;
  auto pruned = r.ReadU64();
  if (!pruned.ok()) return pruned.status();
  msg.pruned_comparisons = *pruned;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  // 4 x u32 refs + u64 score bits per edge.
  if (*count > max_edges || r.remaining() < static_cast<size_t>(*count) * 24) {
    return Status::OutOfRange("partition-result: declared edge count " +
                              std::to_string(*count) + " exceeds payload");
  }
  msg.edges.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    MatchEdge e;
    e.x.database = r.ReadU32().value();
    e.x.record = r.ReadU32().value();
    e.y.database = r.ReadU32().value();
    e.y.record = r.ReadU32().value();
    const uint64_t score_bits = r.ReadU64().value();
    std::memcpy(&e.score, &score_bits, sizeof(e.score));
    msg.edges.push_back(e);
  }
  if (!r.exhausted()) {
    return Status::ProtocolViolation("partition-result: trailing bytes");
  }
  return msg;
}

uint64_t ShipmentChunkChecksum(const uint8_t* data, size_t len) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  for (size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;  // FNV-1a 64 prime
  }
  return hash;
}

Result<std::vector<uint8_t>> EncodeShipment(const EncodedDatabase& encoded) {
  if (encoded.ids.size() != encoded.filters.size()) {
    return Status::InvalidArgument("shipment ids/filters size mismatch");
  }
  const size_t filter_bits = encoded.size() == 0 ? 0 : encoded.filters[0].size();
  std::vector<uint8_t> out(encoded.size() * ShipmentRecordBytes(filter_bits));
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded.filters[i].size() != filter_bits) {
      return Status::InvalidArgument("shipment filters must share one bit length");
    }
    PutShipmentRecord(encoded.ids[i], encoded.filters[i].words().data(), filter_bits,
                      out.data() + i * ShipmentRecordBytes(filter_bits));
  }
  return out;
}

Result<std::vector<uint8_t>> EncodeShipment(const EncodedShard& shard) {
  return EncodeShipmentRows(shard, 0, shard.size());
}

Result<std::vector<uint8_t>> EncodeShipmentRows(const EncodedShard& shard,
                                                size_t row_begin,
                                                size_t row_end) {
  if (shard.ids.size() != shard.bits.num_rows()) {
    return Status::InvalidArgument("shipment ids/filters size mismatch");
  }
  if (row_begin > row_end || row_end > shard.size()) {
    return Status::InvalidArgument("shipment row range out of bounds");
  }
  const size_t filter_bits = shard.bits.num_bits();
  const size_t record_bytes = ShipmentRecordBytes(filter_bits);
  std::vector<uint8_t> out((row_end - row_begin) * record_bytes);
  for (size_t i = row_begin; i < row_end; ++i) {
    PutShipmentRecord(shard.ids[i], shard.bits.row(i), filter_bits,
                      out.data() + (i - row_begin) * record_bytes);
  }
  return out;
}

Result<EncodedDatabase> DecodeShipment(const std::vector<uint8_t>& payload,
                                       uint32_t filter_bits) {
  if (filter_bits == 0) {
    return Status::ProtocolViolation("shipment: filter bit length not negotiated");
  }
  const size_t record_size = ShipmentRecordBytes(filter_bits);
  if (payload.size() % record_size != 0) {
    return Status::ProtocolViolation(
        "shipment: payload length " + std::to_string(payload.size()) +
        " is not a multiple of the record size " + std::to_string(record_size));
  }
  const size_t count = payload.size() / record_size;
  EncodedDatabase out;
  out.ids.reserve(count);
  out.filters.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint8_t* record = payload.data() + i * record_size;
    out.ids.push_back(GetLeU64(record));
    out.filters.push_back(BitVectorFromPackedRow(record + 8, filter_bits));
  }
  return out;
}

ShipmentAssembler::ShipmentAssembler(uint32_t filter_bits, uint32_t record_count)
    : filter_bits_(filter_bits),
      expected_(static_cast<uint64_t>(record_count) *
                (8 + (static_cast<uint64_t>(filter_bits) + 7) / 8)) {
  buffer_.reserve(expected_);
}

Result<bool> ShipmentAssembler::Apply(const ShipmentChunkMessage& chunk) {
  if (filter_bits_ == 0) {
    return Status::FailedPrecondition("assembler not initialised by a hello");
  }
  // Checksum first: a corrupted chunk must never be mistaken for a
  // duplicate or applied, whatever its claimed offset.
  if (ShipmentChunkChecksum(chunk.data.data(), chunk.data.size()) != chunk.checksum) {
    return Status::IoError("shipment chunk checksum mismatch (corrupted in flight)");
  }
  if (chunk.data.empty() && !chunk.last) {
    return Status::ProtocolViolation("empty non-final shipment chunk");
  }
  if (chunk.offset + chunk.data.size() > expected_) {
    return Status::OutOfRange("shipment chunk extends past the declared shipment size");
  }
  if (chunk.offset + chunk.data.size() <= acked_) {
    // Full duplicate of an already-applied span: the retransmit of a
    // chunk whose ack was lost. Idempotent no-op.
    return false;
  }
  if (chunk.offset > acked_) {
    return Status::ProtocolViolation("shipment chunk leaves a gap before offset " +
                                     std::to_string(chunk.offset));
  }
  if (chunk.offset < acked_) {
    return Status::ProtocolViolation("shipment chunk partially overlaps applied bytes");
  }
  const uint64_t new_acked = chunk.offset + chunk.data.size();
  if (chunk.last != (new_acked == expected_)) {
    return Status::ProtocolViolation("shipment chunk last flag disagrees with size");
  }
  buffer_.insert(buffer_.end(), chunk.data.begin(), chunk.data.end());
  acked_ = new_acked;
  if (acked_ == expected_) complete_ = true;
  return true;
}

Result<EncodedDatabase> ShipmentAssembler::Finish() const {
  if (!complete_) {
    return Status::FailedPrecondition("shipment is not complete");
  }
  return DecodeShipment(buffer_, filter_bits_);
}

void ShipmentAssembler::Discard() {
  std::vector<uint8_t>().swap(buffer_);
}

std::vector<uint8_t> EncodeResults(const OwnerLinkageSummary& summary) {
  WireWriter w;
  w.PutU64(summary.comparisons);
  w.PutU64(summary.candidate_pairs);
  w.PutU64(summary.total_edges);
  w.PutU64(summary.total_clusters);
  w.PutU32(summary.owners_linked);
  w.PutU32(summary.owners_expected);
  w.PutU32(summary.workers_linked);
  w.PutU32(summary.workers_expected);
  w.PutU32(static_cast<uint32_t>(summary.matches.size()));
  for (const MatchedRecordSummary& m : summary.matches) {
    w.PutU32(m.record);
    w.PutU32(m.cluster_id);
    w.PutU32(m.cluster_size);
  }
  return w.Take();
}

Result<OwnerLinkageSummary> DecodeResults(const std::vector<uint8_t>& payload,
                                          size_t max_matches) {
  WireReader r(payload);
  OwnerLinkageSummary summary;
  auto comparisons = r.ReadU64();
  if (!comparisons.ok()) return comparisons.status();
  summary.comparisons = *comparisons;
  auto candidates = r.ReadU64();
  if (!candidates.ok()) return candidates.status();
  summary.candidate_pairs = *candidates;
  auto edges = r.ReadU64();
  if (!edges.ok()) return edges.status();
  summary.total_edges = *edges;
  auto clusters = r.ReadU64();
  if (!clusters.ok()) return clusters.status();
  summary.total_clusters = *clusters;
  auto linked = r.ReadU32();
  if (!linked.ok()) return linked.status();
  summary.owners_linked = *linked;
  auto owners_expected = r.ReadU32();
  if (!owners_expected.ok()) return owners_expected.status();
  summary.owners_expected = *owners_expected;
  auto workers_linked = r.ReadU32();
  if (!workers_linked.ok()) return workers_linked.status();
  summary.workers_linked = *workers_linked;
  auto workers_expected = r.ReadU32();
  if (!workers_expected.ok()) return workers_expected.status();
  summary.workers_expected = *workers_expected;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  if (*count > max_matches || r.remaining() < static_cast<size_t>(*count) * 12) {
    return Status::OutOfRange("results: declared match count " + std::to_string(*count) +
                              " exceeds payload");
  }
  summary.matches.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    MatchedRecordSummary m;
    m.record = r.ReadU32().value();
    m.cluster_id = r.ReadU32().value();
    m.cluster_size = r.ReadU32().value();
    summary.matches.push_back(m);
  }
  if (!r.exhausted()) return Status::ProtocolViolation("results: trailing bytes");
  return summary;
}

namespace {

/// Guard on declared record counts in online batches (a 1M-record batch of
/// 1000-bit filters is ~133 MB, already past the default frame cap).
constexpr uint32_t kMaxBatchRecords = 16u << 20;

/// Shared layout check of the online batch messages: `data` must hold
/// exactly `count` records of (u64 id + ceil(filter_bits/8) bytes).
Status CheckBatchLayout(const char* what, uint32_t filter_bits, uint32_t count,
                        size_t data_len) {
  if (filter_bits == 0) {
    return Status::ProtocolViolation(std::string(what) +
                                     ": filter bit length missing");
  }
  if (count > kMaxBatchRecords) {
    return Status::OutOfRange(std::string(what) + ": declared record count " +
                              std::to_string(count) + " exceeds limit");
  }
  const size_t record_size = ShipmentRecordBytes(filter_bits);
  if (data_len != static_cast<size_t>(count) * record_size) {
    return Status::ProtocolViolation(
        std::string(what) + ": data length " + std::to_string(data_len) +
        " does not match " + std::to_string(count) + " records of " +
        std::to_string(record_size) + " bytes");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeAppendRecords(const AppendRecordsMessage& msg) {
  WireWriter w;
  w.PutU64(msg.session_id);
  w.PutU64(msg.base_index);
  w.PutU32(msg.filter_bits);
  w.PutU32(msg.count);
  w.PutBytes(msg.data.data(), msg.data.size());
  return w.Take();
}

Result<AppendRecordsMessage> DecodeAppendRecords(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  AppendRecordsMessage msg;
  auto session = r.ReadU64();
  if (!session.ok()) return session.status();
  msg.session_id = *session;
  auto base = r.ReadU64();
  if (!base.ok()) return base.status();
  msg.base_index = *base;
  auto bits = r.ReadU32();
  if (!bits.ok()) return bits.status();
  msg.filter_bits = *bits;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  msg.count = *count;
  Status layout = CheckBatchLayout("append-records", msg.filter_bits,
                                   msg.count, r.remaining());
  if (!layout.ok()) return layout;
  auto data = r.ReadBytes(r.remaining());
  if (!data.ok()) return data.status();
  msg.data = std::move(*data);
  return msg;
}

std::vector<uint8_t> EncodeQuery(const QueryMessage& msg) {
  WireWriter w;
  w.PutU64(msg.session_id);
  w.PutU64(msg.query_id);
  w.PutU8(msg.want_clusters ? 1 : 0);
  w.PutU32(msg.top_k);
  w.PutU32(msg.filter_bits);
  w.PutU32(msg.count);
  w.PutBytes(msg.data.data(), msg.data.size());
  return w.Take();
}

Result<QueryMessage> DecodeQuery(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  QueryMessage msg;
  auto session = r.ReadU64();
  if (!session.ok()) return session.status();
  msg.session_id = *session;
  auto query = r.ReadU64();
  if (!query.ok()) return query.status();
  msg.query_id = *query;
  auto want = r.ReadU8();
  if (!want.ok()) return want.status();
  msg.want_clusters = *want != 0;
  auto top_k = r.ReadU32();
  if (!top_k.ok()) return top_k.status();
  msg.top_k = *top_k;
  auto bits = r.ReadU32();
  if (!bits.ok()) return bits.status();
  msg.filter_bits = *bits;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  msg.count = *count;
  Status layout =
      CheckBatchLayout("link-query", msg.filter_bits, msg.count, r.remaining());
  if (!layout.ok()) return layout;
  auto data = r.ReadBytes(r.remaining());
  if (!data.ok()) return data.status();
  msg.data = std::move(*data);
  return msg;
}

std::vector<uint8_t> EncodeQueryResult(const QueryResultMessage& msg) {
  WireWriter w;
  w.PutU64(msg.query_id);
  w.PutU64(msg.index_size);
  w.PutU32(static_cast<uint32_t>(msg.records.size()));
  for (const QueryRecordResult& rec : msg.records) {
    w.PutU64(rec.id);
    w.PutU32(rec.cluster_id);
    w.PutU32(rec.cluster_size);
    w.PutU32(rec.candidates);
    w.PutU32(static_cast<uint32_t>(rec.matches.size()));
    for (const QueryMatch& m : rec.matches) {
      w.PutU32(m.database);
      w.PutU32(m.record);
      w.PutU64(m.id);
      uint64_t score_bits = 0;
      std::memcpy(&score_bits, &m.score, sizeof(score_bits));
      w.PutU64(score_bits);
    }
  }
  return w.Take();
}

Result<QueryResultMessage> DecodeQueryResult(const std::vector<uint8_t>& payload,
                                             size_t max_matches) {
  WireReader r(payload);
  QueryResultMessage msg;
  auto query = r.ReadU64();
  if (!query.ok()) return query.status();
  msg.query_id = *query;
  auto index_size = r.ReadU64();
  if (!index_size.ok()) return index_size.status();
  msg.index_size = *index_size;
  auto count = r.ReadU32();
  if (!count.ok()) return count.status();
  // u64 id + 4 x u32 per record, before its matches.
  if (*count > max_matches || r.remaining() < static_cast<size_t>(*count) * 24) {
    return Status::OutOfRange("query-result: declared record count " +
                              std::to_string(*count) + " exceeds payload");
  }
  msg.records.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    QueryRecordResult rec;
    auto id = r.ReadU64();
    if (!id.ok()) return id.status();
    rec.id = *id;
    auto cluster_id = r.ReadU32();
    if (!cluster_id.ok()) return cluster_id.status();
    rec.cluster_id = *cluster_id;
    auto cluster_size = r.ReadU32();
    if (!cluster_size.ok()) return cluster_size.status();
    rec.cluster_size = *cluster_size;
    auto candidates = r.ReadU32();
    if (!candidates.ok()) return candidates.status();
    rec.candidates = *candidates;
    auto match_count = r.ReadU32();
    if (!match_count.ok()) return match_count.status();
    // u32 db + u32 record + u64 id + u64 score bits per match.
    if (*match_count > max_matches ||
        r.remaining() < static_cast<size_t>(*match_count) * 24) {
      return Status::OutOfRange("query-result: declared match count " +
                                std::to_string(*match_count) +
                                " exceeds payload");
    }
    rec.matches.reserve(*match_count);
    for (uint32_t j = 0; j < *match_count; ++j) {
      QueryMatch m;
      m.database = r.ReadU32().value();
      m.record = r.ReadU32().value();
      m.id = r.ReadU64().value();
      const uint64_t score_bits = r.ReadU64().value();
      std::memcpy(&m.score, &score_bits, sizeof(m.score));
      rec.matches.push_back(m);
    }
    msg.records.push_back(std::move(rec));
  }
  if (!r.exhausted()) {
    return Status::ProtocolViolation("query-result: trailing bytes");
  }
  return msg;
}

std::vector<uint8_t> EncodeError(const Status& status) {
  WireWriter w;
  w.PutU16(StatusCodeToWire(status.code()));
  std::string msg = status.message();
  if (msg.size() > kMaxErrorLen) msg.resize(kMaxErrorLen);
  w.PutString(msg);
  return w.Take();
}

Result<ErrorMessage> DecodeError(const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  ErrorMessage out;
  auto code = r.ReadU16();
  if (!code.ok()) return code.status();
  out.code = StatusCodeFromWire(*code);
  auto msg = r.ReadString(kMaxErrorLen);
  if (!msg.ok()) return msg.status();
  out.message = std::move(*msg);
  return out;
}

OwnerLinkageSummary SummarizeForOwner(const MultiPartyLinkageResult& result,
                                      uint32_t database_index) {
  OwnerLinkageSummary summary;
  summary.comparisons = result.comparisons;
  summary.candidate_pairs = result.candidate_pairs;
  summary.total_edges = result.edges.size();
  summary.total_clusters = result.clusters.size();
  for (uint32_t c = 0; c < result.clusters.size(); ++c) {
    const Cluster& cluster = result.clusters[c];
    if (cluster.size() < 2) continue;
    for (const RecordRef& ref : cluster) {
      if (ref.database == database_index) {
        summary.matches.push_back({ref.record, c, static_cast<uint32_t>(cluster.size())});
      }
    }
  }
  return summary;
}

}  // namespace pprl
