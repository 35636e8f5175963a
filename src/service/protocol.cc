#include "service/protocol.h"

#include "blocking/lsh_blocking.h"
#include "common/wire.h"
#include "net/frame.h"

namespace pprl {

namespace {

/// Guard on name strings crossing the wire.
constexpr size_t kMaxNameLen = 256;
/// Guard on error text crossing the wire.
constexpr size_t kMaxErrorLen = 4096;
/// Guard on busy-reason text crossing the wire.
constexpr size_t kMaxReasonLen = 512;

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
  PPRL_RETURN_IF_ERROR(r.Read(&msg.protocol_version));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.party, kMaxNameLen));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.filter_bits));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.record_count));
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
  PPRL_RETURN_IF_ERROR(r.Read(&msg.protocol_version));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.server, kMaxNameLen));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.expected_owners));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.session_id));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.max_chunk_bytes));
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
  uint8_t last = 0;
  r.Read(&msg.session_id);  // the header's size is checked above
  r.Read(&msg.offset);
  r.Read(&last);
  r.Read(&msg.checksum);
  if (last > 1) return Status::ProtocolViolation("shipment-chunk: bad last flag");
  msg.last = last == 1;
  msg.data = r.ReadBytes(r.remaining()).value();
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
  PPRL_RETURN_IF_ERROR(r.Read(&msg.session_id));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.acked_bytes));
  uint8_t complete = 0;
  PPRL_RETURN_IF_ERROR(r.Read(&complete));
  if (complete > 1) return Status::ProtocolViolation("shipment-ack: bad complete flag");
  msg.complete = complete == 1;
  PPRL_RETURN_IF_ERROR(r.Read(&msg.owners_shipped));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.expected_owners));
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
  PPRL_RETURN_IF_ERROR(r.Read(&msg.protocol_version));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.party, kMaxNameLen));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.session_id));
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
  PPRL_RETURN_IF_ERROR(r.Read(&msg.session_id));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.acked_bytes));
  uint8_t complete = 0;
  PPRL_RETURN_IF_ERROR(r.Read(&complete));
  if (complete > 1) return Status::ProtocolViolation("resume-ack: bad complete flag");
  msg.shipment_complete = complete == 1;
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
  PPRL_RETURN_IF_ERROR(r.Read(&msg.retry_after_ms));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.reason, kMaxReasonLen));
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
  w.PutF64(msg.dice_threshold);
  w.PutU32(msg.lsh_tables);
  w.PutU32(msg.lsh_bits_per_key);
  w.PutU64(msg.lsh_seed);
  return w.Take();
}

Result<AssignPartitionMessage> DecodeAssignPartition(
    const std::vector<uint8_t>& payload) {
  WireReader r(payload);
  AssignPartitionMessage msg;
  PPRL_RETURN_IF_ERROR(r.Read(&msg.protocol_version));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.coordinator, kMaxNameLen));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.worker_index));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.num_workers));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.scheme));
  if (msg.scheme > 2) {
    return Status::ProtocolViolation("assign-partition: unknown scheme");
  }
  PPRL_RETURN_IF_ERROR(r.Read(&msg.expected_owners));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.dice_threshold));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.lsh_tables));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.lsh_bits_per_key));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.lsh_seed));
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
    w.PutF64(e.score);
  }
  return w.Take();
}

Result<PartitionResultMessage> DecodePartitionResult(
    const std::vector<uint8_t>& payload, size_t max_edges) {
  WireReader r(payload);
  PartitionResultMessage msg;
  PPRL_RETURN_IF_ERROR(r.Read(&msg.worker_index));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.comparisons));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.candidate_pairs));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.pruned_comparisons));
  uint32_t count = 0;
  PPRL_RETURN_IF_ERROR(r.Read(&count));
  // 4 x u32 refs + u64 score bits per edge.
  if (count > max_edges || r.remaining() < static_cast<size_t>(count) * 24) {
    return Status::OutOfRange("partition-result: declared edge count " +
                              std::to_string(count) + " exceeds payload");
  }
  msg.edges.resize(count);
  for (MatchEdge& e : msg.edges) {  // the size is checked above
    r.Read(&e.x.database);
    r.Read(&e.x.record);
    r.Read(&e.y.database);
    r.Read(&e.y.record);
    r.Read(&e.score);
  }
  if (!r.exhausted()) {
    return Status::ProtocolViolation("partition-result: trailing bytes");
  }
  return msg;
}

uint64_t ShipmentChunkChecksum(const uint8_t* data, size_t len) {
  return Fnv1a64(data, len);
}

Result<std::vector<uint8_t>> EncodeShipment(const EncodedDatabase& encoded) {
  if (encoded.ids.size() != encoded.filters.size()) {
    return Status::InvalidArgument("shipment ids/filters size mismatch");
  }
  const size_t filter_bits = encoded.size() == 0 ? 0 : encoded.filters[0].size();
  for (const BitVector& filter : encoded.filters) {
    if (filter.size() != filter_bits) {
      return Status::InvalidArgument("shipment filters must share one bit length");
    }
  }
  std::vector<uint8_t> out(encoded.size() * PackedRecordBytes(filter_bits));
  StorePackedRecords(encoded, 0, encoded.size(), filter_bits, out.data());
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
  std::vector<uint8_t> out((row_end - row_begin) *
                           PackedRecordBytes(shard.bits.num_bits()));
  StorePackedRecords(shard, row_begin, row_end, out.data());
  return out;
}

Result<EncodedDatabase> DecodeShipment(const std::vector<uint8_t>& payload,
                                       uint32_t filter_bits) {
  if (filter_bits == 0) {
    return Status::ProtocolViolation("shipment: filter bit length not negotiated");
  }
  const size_t record_size = PackedRecordBytes(filter_bits);
  if (payload.size() % record_size != 0) {
    return Status::ProtocolViolation(
        "shipment: payload length " + std::to_string(payload.size()) +
        " is not a multiple of the record size " + std::to_string(record_size));
  }
  EncodedDatabase out;
  LoadPackedRecords(payload.data(), payload.size() / record_size, filter_bits, &out);
  return out;
}

ShipmentAssembler::ShipmentAssembler(uint32_t filter_bits, uint32_t record_count)
    : filter_bits_(filter_bits),
      expected_(static_cast<uint64_t>(record_count) * PackedRecordBytes(filter_bits)) {
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
  PPRL_RETURN_IF_ERROR(r.Read(&summary.comparisons));
  PPRL_RETURN_IF_ERROR(r.Read(&summary.candidate_pairs));
  PPRL_RETURN_IF_ERROR(r.Read(&summary.total_edges));
  PPRL_RETURN_IF_ERROR(r.Read(&summary.total_clusters));
  PPRL_RETURN_IF_ERROR(r.Read(&summary.owners_linked));
  PPRL_RETURN_IF_ERROR(r.Read(&summary.owners_expected));
  PPRL_RETURN_IF_ERROR(r.Read(&summary.workers_linked));
  PPRL_RETURN_IF_ERROR(r.Read(&summary.workers_expected));
  uint32_t count = 0;
  PPRL_RETURN_IF_ERROR(r.Read(&count));
  if (count > max_matches || r.remaining() < static_cast<size_t>(count) * 12) {
    return Status::OutOfRange("results: declared match count " + std::to_string(count) +
                              " exceeds payload");
  }
  summary.matches.resize(count);
  for (MatchedRecordSummary& m : summary.matches) {  // the size is checked above
    r.Read(&m.record);
    r.Read(&m.cluster_id);
    r.Read(&m.cluster_size);
  }
  if (!r.exhausted()) return Status::ProtocolViolation("results: trailing bytes");
  return summary;
}

namespace {

/// Guard on declared record counts in online batches (a 1M-record batch of
/// 1000-bit filters is ~133 MB, already past the default frame cap).
constexpr uint32_t kMaxBatchRecords = 16u << 20;

/// Shared layout check of the online batch messages: `data` must hold
/// exactly `count` packed records of `filter_bits`-bit filters.
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
  const size_t record_size = PackedRecordBytes(filter_bits);
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
  PPRL_RETURN_IF_ERROR(r.Read(&msg.session_id));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.base_index));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.filter_bits));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.count));
  PPRL_RETURN_IF_ERROR(CheckBatchLayout("append-records", msg.filter_bits,
                                        msg.count, r.remaining()));
  msg.data = r.ReadBytes(r.remaining()).value();
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
  PPRL_RETURN_IF_ERROR(r.Read(&msg.session_id));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.query_id));
  uint8_t want = 0;
  PPRL_RETURN_IF_ERROR(r.Read(&want));
  msg.want_clusters = want != 0;
  PPRL_RETURN_IF_ERROR(r.Read(&msg.top_k));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.filter_bits));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.count));
  PPRL_RETURN_IF_ERROR(
      CheckBatchLayout("link-query", msg.filter_bits, msg.count, r.remaining()));
  msg.data = r.ReadBytes(r.remaining()).value();
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
      w.PutF64(m.score);
    }
  }
  return w.Take();
}

Result<QueryResultMessage> DecodeQueryResult(const std::vector<uint8_t>& payload,
                                             size_t max_matches) {
  WireReader r(payload);
  QueryResultMessage msg;
  PPRL_RETURN_IF_ERROR(r.Read(&msg.query_id));
  PPRL_RETURN_IF_ERROR(r.Read(&msg.index_size));
  uint32_t count = 0;
  PPRL_RETURN_IF_ERROR(r.Read(&count));
  // u64 id + 4 x u32 per record, before its matches.
  if (count > max_matches || r.remaining() < static_cast<size_t>(count) * 24) {
    return Status::OutOfRange("query-result: declared record count " +
                              std::to_string(count) + " exceeds payload");
  }
  msg.records.resize(count);
  for (QueryRecordResult& rec : msg.records) {
    uint32_t match_count = 0;
    PPRL_RETURN_IF_ERROR(r.Read(&rec.id));
    PPRL_RETURN_IF_ERROR(r.Read(&rec.cluster_id));
    PPRL_RETURN_IF_ERROR(r.Read(&rec.cluster_size));
    PPRL_RETURN_IF_ERROR(r.Read(&rec.candidates));
    PPRL_RETURN_IF_ERROR(r.Read(&match_count));
    // u32 db + u32 record + u64 id + u64 score bits per match.
    if (match_count > max_matches ||
        r.remaining() < static_cast<size_t>(match_count) * 24) {
      return Status::OutOfRange("query-result: declared match count " +
                                std::to_string(match_count) + " exceeds payload");
    }
    rec.matches.resize(match_count);
    for (QueryMatch& m : rec.matches) {  // the size is checked above
      r.Read(&m.database);
      r.Read(&m.record);
      r.Read(&m.id);
      r.Read(&m.score);
    }
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
  uint16_t code = 0;
  PPRL_RETURN_IF_ERROR(r.Read(&code));
  out.code = StatusCodeFromWire(code);
  PPRL_RETURN_IF_ERROR(r.Read(&out.message, kMaxErrorLen));
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
