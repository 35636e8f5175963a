#ifndef PPRL_SERVICE_PROTOCOL_H_
#define PPRL_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "encoding/clk_io.h"
#include "pipeline/party.h"

namespace pprl {

/// The messages of the linkage-unit wire protocol (version 2), in the
/// order a session uses them. Each value is the `type` tag of one frame
/// (net/frame.h); payload layouts are little-endian and produced /
/// validated by the Encode*/Decode* pairs below.
///
///   owner                          linkage unit
///     │ ── kHello ───────────────────▶ │   version, party, filter bits, n
///     │ ◀─────────────── kHelloAck ── │   server, expected owners,
///     │                                │   session id, max chunk bytes
///     │ ── kShipmentChunk ───────────▶ │   session, offset, checksum, data
///     │ ◀─────────── kShipmentAck ── │   acked bytes, complete flag
///     │        ... more chunks until the shipment is complete ...
///     │      (unit links once all owners have shipped)
///     │ ◀─────────────── kResults ── │   per-owner match summary
///
/// If the connection dies mid-shipment, the owner dials again and sends
/// kResume with the session id from the HelloAck; the unit replies
/// kResumeAck carrying the byte offset it has durably applied, and the
/// owner continues chunking from there. Chunk application is idempotent:
/// a re-delivered chunk at or below the acked offset is acknowledged
/// again without being applied twice.
///
/// Either side may send kError instead of the expected message; the
/// payload carries a status code + text and the session ends. An
/// overloaded unit instead sends kBusy (retry-after hint) and closes —
/// the session state, if any, survives for a later resume.
///
/// Version 3 adds the scatter/gather pair for horizontally sharded
/// linkage units (docs/PROTOCOLS.md §14). A coordinator first ships every
/// owner's registered database to each worker daemon with the ordinary
/// hello/chunk session machinery above, then assigns the worker its slice
/// of the candidate space:
///
///   coordinator                       worker
///     │ ── kAssignPartition ─────────▶ │   ring size, worker index,
///     │                                │   blocking + threshold params
///     │ ◀──────── kPartitionResult ── │   scored edges of the partition,
///     │                                │   comparison/pruning counters
///
/// The assignment is idempotent: re-sending it (after a lost connection)
/// makes the worker recompute the same deterministic result. A worker
/// that has not received every owner shipment answers kError
/// (kFailedPrecondition); an overloaded worker sheds with kBusy exactly
/// like an owner-facing daemon.
///
/// Version 4 adds the online serving pair for an incrementally-linked unit
/// (`pprl_linkd --online`, docs/PROTOCOLS.md §15). Sessions open with the
/// same hello/resume machinery (a record_count of 0 opens a query-only
/// session); after registration the session stays open and loops:
///
///   owner                          linkage unit
///     │ ── kAppendRecords ───────────▶ │   base index + id/filter batch
///     │ ◀─────────── kShipmentAck ── │   acked records (resume cursor)
///     │ ── kQuery ───────────────────▶ │   query id + filter batch
///     │ ◀──────────── kQueryResult ── │   per-record matches + cluster
///
/// Appends are idempotent by base index (a batch at or below the acked
/// record cursor is re-acked without being applied), queries are
/// stateless, so both replay safely over a kResume'd connection.
enum class MessageType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kShipmentChunk = 3,
  kShipmentAck = 4,
  kResults = 5,
  kError = 6,
  kResume = 7,
  kResumeAck = 8,
  kBusy = 9,
  kAssignPartition = 10,
  kPartitionResult = 11,
  kAppendRecords = 12,
  kQuery = 13,
  kQueryResult = 14,
};

/// The channel-metering tag for a message type ("encoded-filters" for
/// shipment chunks, matching the in-process pipeline's accounting).
const char* MessageTypeTag(uint8_t type);

/// Opening message of a session: who is calling and what they will ship.
struct HelloMessage {
  uint32_t protocol_version = 0;
  std::string party;
  /// Bit length of every filter in the upcoming shipment. Fixed here so
  /// the shipment payload itself needs no per-record length fields.
  uint32_t filter_bits = 0;
  uint32_t record_count = 0;
};

/// The unit's reply to a Hello. The session id names the server-side
/// shipment state for later kResume; max_chunk_bytes is the largest data
/// span the unit will accept in one kShipmentChunk.
struct HelloAckMessage {
  uint32_t protocol_version = 0;
  std::string server;
  uint32_t expected_owners = 0;
  uint64_t session_id = 0;
  uint32_t max_chunk_bytes = 0;
};

/// One span of the encoded shipment. `offset` is the byte position within
/// the full shipment payload (EncodeShipment output); `checksum` is
/// ShipmentChunkChecksum(data) and guards against in-flight corruption,
/// which plain length-prefixed frames cannot detect. `last` marks the
/// chunk that completes the shipment.
struct ShipmentChunkMessage {
  uint64_t session_id = 0;
  uint64_t offset = 0;
  bool last = false;
  uint64_t checksum = 0;
  std::vector<uint8_t> data;
};

/// Fixed wire overhead of one shipment chunk beyond its data bytes:
/// u64 session + u64 offset + u8 last + u64 checksum.
inline constexpr size_t kShipmentChunkOverheadBytes = 8 + 8 + 1 + 8;

/// Acknowledges applied shipment bytes. `acked_bytes` is the resume
/// cursor: everything below it is durable on the unit. `complete` flips
/// once the whole shipment has been applied and registered.
struct ShipmentAckMessage {
  uint64_t session_id = 0;
  uint64_t acked_bytes = 0;
  bool complete = false;
  uint32_t owners_shipped = 0;
  uint32_t expected_owners = 0;
};

/// Re-attaches a new connection to an existing session after a fault.
struct ResumeMessage {
  uint32_t protocol_version = 0;
  std::string party;
  uint64_t session_id = 0;
};

/// The unit's reply to a Resume: where to continue from.
struct ResumeAckMessage {
  uint64_t session_id = 0;
  uint64_t acked_bytes = 0;
  bool shipment_complete = false;
};

/// Load-shedding reply: try again after the hinted delay. Sent instead of
/// HelloAck/ResumeAck when the unit is at its session or buffer limit.
struct BusyMessage {
  uint32_t retry_after_ms = 0;
  std::string reason;
};

/// One matched record in an owner's result summary.
struct MatchedRecordSummary {
  uint32_t record = 0;        ///< index into the owner's shipment
  uint32_t cluster_id = 0;    ///< cluster index in the unit's clustering
  uint32_t cluster_size = 0;  ///< records in that cluster (across databases)

  friend bool operator==(const MatchedRecordSummary& a, const MatchedRecordSummary& b) {
    return a.record == b.record && a.cluster_id == b.cluster_id &&
           a.cluster_size == b.cluster_size;
  }
};

/// What a database owner learns from a linkage run: which of *its own*
/// records were clustered with records elsewhere, plus global cost
/// counters. No other party's record indices or similarities leak.
/// owners_linked < owners_expected means the unit invoked its quorum
/// option and linked without every invited owner; workers_linked <
/// workers_expected means a sharded run proceeded without every worker
/// partition (straggler quorum) — either way a degraded result. A
/// non-distributed run reports workers 0/0.
struct OwnerLinkageSummary {
  std::vector<MatchedRecordSummary> matches;
  uint64_t comparisons = 0;
  uint64_t candidate_pairs = 0;
  uint64_t total_edges = 0;
  uint64_t total_clusters = 0;
  uint32_t owners_linked = 0;
  uint32_t owners_expected = 0;
  uint32_t workers_linked = 0;
  uint32_t workers_expected = 0;

  bool degraded() const {
    return owners_linked < owners_expected || workers_linked < workers_expected;
  }
};

/// A transported error: the Status round-trips through the wire.
struct ErrorMessage {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

/// Coordinator -> worker: which slice of the candidate space this worker
/// owns, and the exact blocking/threshold parameters to recompute it
/// with. Workers rebuild the seeded LSH index from their shipped copies
/// of the databases, so only the ring geometry crosses the wire, never a
/// key -> worker map.
struct AssignPartitionMessage {
  uint32_t protocol_version = 0;
  std::string coordinator;
  uint32_t worker_index = 0;
  uint32_t num_workers = 0;
  /// PartitionScheme as its wire value (0 auto, 1 rendezvous, 2 ring).
  uint8_t scheme = 0;
  /// Shipments the worker must have registered before it can compare.
  uint32_t expected_owners = 0;
  double dice_threshold = 0.0;
  uint32_t lsh_tables = 0;
  uint32_t lsh_bits_per_key = 0;
  uint64_t lsh_seed = 0;
};

/// Worker -> coordinator: every scored edge of the worker's partition
/// (threshold already applied), sorted by (database pair, a, b), plus the
/// partition's share of the comparison counters. Scores travel as raw
/// IEEE-754 bit patterns, so the merged edge list is bitwise-identical to
/// a single-machine run.
struct PartitionResultMessage {
  uint32_t worker_index = 0;
  uint64_t comparisons = 0;
  uint64_t candidate_pairs = 0;
  uint64_t pruned_comparisons = 0;
  std::vector<MatchEdge> edges;
};

/// Owner -> online unit: a batch of records to link into the population.
/// `base_index` is the number of this party's records already applied on
/// the unit as the client last knew it — the idempotency cursor. A batch
/// whose records all lie at or below the unit's cursor is acknowledged
/// without being applied; a batch starting beyond it is a protocol
/// violation (a gap). `data` is the EncodeShipment layout: `count`
/// packed records (encoding/clk_io.h). The reply is a
/// kShipmentAck whose `acked_bytes` carries the party's RECORD cursor
/// (records applied), not bytes, and `complete` is always true.
struct AppendRecordsMessage {
  uint64_t session_id = 0;
  uint64_t base_index = 0;
  uint32_t filter_bits = 0;
  uint32_t count = 0;
  std::vector<uint8_t> data;
};

/// Owner -> online unit: link queries for a batch of filters (same data
/// layout as a shipment; the ids are echoed back in the result). Nothing
/// is inserted. `want_clusters` asks the unit to resolve each best match's
/// cluster id/size; `top_k` caps matches per record (0 = server default).
struct QueryMessage {
  uint64_t session_id = 0;
  uint64_t query_id = 0;  ///< echoed in the result; client correlation
  bool want_clusters = false;
  uint32_t top_k = 0;
  uint32_t filter_bits = 0;
  uint32_t count = 0;
  std::vector<uint8_t> data;
};

/// One match inside a query result. Scores travel as raw IEEE-754 bits,
/// like kPartitionResult edges.
struct QueryMatch {
  uint32_t database = 0;
  uint32_t record = 0;
  uint64_t id = 0;
  double score = 0;

  friend bool operator==(const QueryMatch& a, const QueryMatch& b) {
    return a.database == b.database && a.record == b.record && a.id == b.id &&
           a.score == b.score;
  }
};

/// Per-queried-record slice of a kQueryResult.
struct QueryRecordResult {
  uint64_t id = 0;               ///< the id sent with the query record
  uint32_t cluster_id = UINT32_MAX;  ///< best match's cluster; UINT32_MAX none
  uint32_t cluster_size = 0;
  uint32_t candidates = 0;       ///< LSH candidates scored for this record
  std::vector<QueryMatch> matches;  ///< best first, top_k-capped
};

/// Online unit -> owner: answers one kQuery.
struct QueryResultMessage {
  uint64_t query_id = 0;
  uint64_t index_size = 0;  ///< records indexed when the query was answered
  std::vector<QueryRecordResult> records;
};

std::vector<uint8_t> EncodeHello(const HelloMessage& msg);
Result<HelloMessage> DecodeHello(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeHelloAck(const HelloAckMessage& msg);
Result<HelloAckMessage> DecodeHelloAck(const std::vector<uint8_t>& payload);

/// Encodes a chunk; the checksum field is ignored and recomputed from
/// `msg.data` so an encoded chunk is always self-consistent.
std::vector<uint8_t> EncodeShipmentChunk(const ShipmentChunkMessage& msg);
Result<ShipmentChunkMessage> DecodeShipmentChunk(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeShipmentAck(const ShipmentAckMessage& msg);
Result<ShipmentAckMessage> DecodeShipmentAck(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeResume(const ResumeMessage& msg);
Result<ResumeMessage> DecodeResume(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeResumeAck(const ResumeAckMessage& msg);
Result<ResumeAckMessage> DecodeResumeAck(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeBusy(const BusyMessage& msg);
Result<BusyMessage> DecodeBusy(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeAssignPartition(const AssignPartitionMessage& msg);
Result<AssignPartitionMessage> DecodeAssignPartition(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodePartitionResult(const PartitionResultMessage& msg);
Result<PartitionResultMessage> DecodePartitionResult(
    const std::vector<uint8_t>& payload, size_t max_edges = 16u << 20);

/// FNV-1a 64 over a chunk's data bytes. Cheap, order-sensitive, and good
/// enough to catch the single-bit flips a faulty transport introduces.
uint64_t ShipmentChunkChecksum(const uint8_t* data, size_t len);

/// Serialises an encoded database as n packed records (encoding/clk_io.h)
/// — exactly the byte count the in-process `Channel` path meters
/// for an "encoded-filters" shipment, so cost accounting matches. The
/// chunk layer ships contiguous spans of this buffer.
Result<std::vector<uint8_t>> EncodeShipment(const EncodedDatabase& encoded);

/// Same wire layout, straight from a shard's `BitMatrix` rows without
/// materializing per-record `BitVector`s, so a streamed ingest
/// (io/ingest.h) goes CSV -> CLK rows -> wire bytes with no intermediate
/// vectors. Byte-identical to encoding `EncodedDatabaseFromShard(shard)`:
/// every filter is stored and loaded by the packed-row rule of
/// common/bitvector.h.
Result<std::vector<uint8_t>> EncodeShipment(const EncodedShard& shard);

/// Rows [row_begin, row_end) of a shard in the same wire layout — the
/// batching primitive of the online append/query path. InvalidArgument
/// unless the shard has one id per row and the range lies inside it.
Result<std::vector<uint8_t>> EncodeShipmentRows(const EncodedShard& shard,
                                                size_t row_begin,
                                                size_t row_end);

/// Inverse of EncodeShipment; `filter_bits` comes from the Hello. The
/// payload length must be an exact multiple of the per-record size. Each
/// record is read in place; stray bits past `filter_bits` in a record's
/// last byte are masked off, not rejected.
Result<EncodedDatabase> DecodeShipment(const std::vector<uint8_t>& payload,
                                       uint32_t filter_bits);

/// Reassembles a chunked shipment on the linkage unit, enforcing the
/// resume contract: chunks apply exactly once, in order, each guarded by
/// its checksum. Duplicates (full re-deliveries of already-acked spans)
/// are detected and skipped, which is what makes client retries safe.
class ShipmentAssembler {
 public:
  /// A default-constructed assembler accepts nothing until it is replaced
  /// by one initialised from a Hello.
  ShipmentAssembler() = default;
  ShipmentAssembler(uint32_t filter_bits, uint32_t record_count);

  /// Applies one chunk. Returns true if the chunk advanced the shipment,
  /// false for a harmless duplicate (offset + size entirely at or below
  /// the acked cursor). Errors:
  ///  - kIoError: checksum mismatch (corrupted in flight) — retryable,
  ///  - kOutOfRange: chunk extends past the declared shipment size,
  ///  - kProtocolViolation: gaps, partial overlaps, empty non-final
  ///    chunks, or a `last` flag that disagrees with the byte count.
  Result<bool> Apply(const ShipmentChunkMessage& chunk);

  /// Decodes the fully assembled shipment. Requires complete().
  Result<EncodedDatabase> Finish() const;

  /// Frees the assembly buffer (after the shipment has been handed to the
  /// linkage unit) while keeping acked_bytes()/complete() answerable for
  /// resumes that arrive after registration.
  void Discard();

  uint64_t acked_bytes() const { return acked_; }
  bool complete() const { return complete_; }
  uint64_t expected_bytes() const { return expected_; }
  /// Bytes currently held in the assembly buffer.
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  uint32_t filter_bits_ = 0;
  uint64_t expected_ = 0;
  uint64_t acked_ = 0;
  bool complete_ = false;
  std::vector<uint8_t> buffer_;
};

std::vector<uint8_t> EncodeResults(const OwnerLinkageSummary& summary);
Result<OwnerLinkageSummary> DecodeResults(const std::vector<uint8_t>& payload,
                                          size_t max_matches = 16u << 20);

std::vector<uint8_t> EncodeAppendRecords(const AppendRecordsMessage& msg);
Result<AppendRecordsMessage> DecodeAppendRecords(
    const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeQuery(const QueryMessage& msg);
Result<QueryMessage> DecodeQuery(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeQueryResult(const QueryResultMessage& msg);
Result<QueryResultMessage> DecodeQueryResult(const std::vector<uint8_t>& payload,
                                             size_t max_matches = 16u << 20);

std::vector<uint8_t> EncodeError(const Status& status);
/// Reconstructs the transported Status (never OK).
Result<ErrorMessage> DecodeError(const std::vector<uint8_t>& payload);

/// Projects a multi-party linkage result onto one owner: every record of
/// database `database_index` that landed in a cluster of size >= 2.
/// owners_linked/owners_expected are filled in by the caller, which knows
/// whether the run was degraded.
OwnerLinkageSummary SummarizeForOwner(const MultiPartyLinkageResult& result,
                                      uint32_t database_index);

}  // namespace pprl

#endif  // PPRL_SERVICE_PROTOCOL_H_
